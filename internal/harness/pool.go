// This file holds the cross-campaign simulation budget: a TokenPool is a
// counting semaphore several Drivers draw from, so a service running many
// campaigns concurrently can bound the *total* number of in-flight
// simulated runs independently of each campaign's own parallelism. It
// also holds the driver's teardown hook (Release), which returns the
// pooled traces a finished or cancelled campaign still retains.

package harness

import "context"

// TokenPool is a shared simulation-concurrency budget. Every simulated
// run of a Driver whose Config.Pool is set must hold one token for the
// duration of the run, in addition to the driver's own worker slot
// (Config.Parallelism), so N campaigns sharing one pool never execute
// more than the pool's capacity of runs at once in total.
//
// Sharing a pool affects only scheduling, never results: the driver
// merges run results in deterministic (plan, seed-index) order, so a
// campaign squeezed through a shared pool stays byte-identical to the
// same campaign running alone.
type TokenPool struct {
	ch chan struct{}
}

// NewTokenPool returns a pool of n tokens; n < 1 is treated as 1.
func NewTokenPool(n int) *TokenPool {
	if n < 1 {
		n = 1
	}
	return &TokenPool{ch: make(chan struct{}, n)}
}

// Cap returns the pool's capacity.
func (p *TokenPool) Cap() int { return cap(p.ch) }

// InUse returns the number of tokens currently held (a metrics gauge;
// instantaneous, may be stale by the time it is read).
func (p *TokenPool) InUse() int { return len(p.ch) }

// Acquire takes a token, blocking until one is free or ctx is done; it
// reports whether the token was acquired. A false return means the
// caller's campaign is being torn down and must not simulate.
func (p *TokenPool) Acquire(ctx context.Context) bool {
	select {
	case p.ch <- struct{}{}:
		return true
	default:
	}
	select {
	case p.ch <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release returns a token taken by Acquire.
func (p *TokenPool) Release() { <-p.ch }

// Release returns every pooled trace the driver still holds -- the
// cached profile run sets -- to its run pool and drops the profile
// cache. Call it once the campaign is torn down (finished or cancelled)
// and the driver will execute no further runs: FCA copies the occurrence
// evidence it keeps, so the accumulated graph and every read accessor
// over it (Graph, Marks, Edges) stay valid. Idempotent; a
// long-running service calls it after each job so retired campaigns do
// not pin trace state until the whole driver is collected.
func (d *Driver) Release() {
	d.mu.Lock()
	entries := d.profiles
	d.profiles = make(map[string]*profileEntry)
	d.mu.Unlock()
	for _, e := range entries {
		// Wait out an in-flight first computation (the once gate) so the
		// drain cannot race a profile run still being assembled.
		e.once.Do(func() {})
		if e.set == nil {
			continue
		}
		for _, r := range e.set.Runs {
			d.pool.Put(r)
		}
		e.set.Runs = nil
	}

	// Tear down the prefix-sharing layer too: close every live prefix
	// engine and release its probe footprint.
	d.mu.Lock()
	prefixes := d.prefixes
	d.prefixes = make(map[ckKey]*prefixEntry)
	d.mu.Unlock()
	for _, pe := range prefixes {
		pe.drop(d)
	}
	d.ckc.reset()
}

// ProfileRunsHeld counts the pooled trace runs currently retained by the
// profile cache (zero after Release). Exposed for teardown tests and
// service metrics.
func (d *Driver) ProfileRunsHeld() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, e := range d.profiles {
		if e.set != nil {
			n += len(e.set.Runs)
		}
	}
	return n
}
