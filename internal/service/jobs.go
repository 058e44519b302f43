// This file is the job manager: campaigns submitted to the service
// become jobs in a priority queue, at most MaxJobs run at once, and all
// running jobs share one harness.TokenPool so the total number of
// in-flight simulations is bounded no matter how many campaigns are
// active. Each job runs on its own goroutine with a recover barrier
// (a panicking campaign fails its job, never the daemon), owns a
// cancellation context (DELETE), and fans completed rounds out to
// event subscribers.
//
// With a data directory configured the manager is crash-safe: every
// lifecycle transition is journaled (journal.go), anytime jobs persist
// a resume checkpoint after each round, and boot replays the journal to
// re-queue everything that was queued or running when the daemon died
// (recovery.go). Self-healing rides on top: failed attempts retry with
// capped exponential backoff up to the spec's maxAttempts, a watchdog
// cancels jobs stuck past their deadline, and admission control bounds
// the queue and sheds load when the worker pool saturates.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// Config tunes the service.
type Config struct {
	// Workers is the shared simulation-token budget across all running
	// jobs (default: GOMAXPROCS).
	Workers int
	// MaxJobs bounds concurrently running jobs (default 4); further
	// submissions queue by priority.
	MaxJobs int
	// MaxQueue bounds the number of waiting jobs (default 256); beyond
	// it submissions are rejected with ErrQueueFull (HTTP 429).
	MaxQueue int
	// ShedHighWater enables load shedding: when the worker pool's in-use
	// fraction reaches this value (e.g. 0.9), new submissions are
	// rejected with ErrOverloaded until the pool drains. 0 disables.
	ShedHighWater float64
	// DataDir persists graph artifacts and the job journal ("" =
	// in-memory only: no durability, no crash recovery).
	DataDir string
	// SubBuffer is the per-subscriber event buffer (default 64); a
	// subscriber that falls further behind drops rounds.
	SubBuffer int
	// RetryBase is the first retry backoff; attempt n waits
	// RetryBase << (n-1), capped at 5s (default 500ms).
	RetryBase time.Duration
	// WatchInterval is the stuck-job watchdog's scan period (default
	// 250ms).
	WatchInterval time.Duration
}

func (c *Config) defaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 256
	}
	if c.SubBuffer < 1 {
		c.SubBuffer = 64
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
	}
	if c.WatchInterval <= 0 {
		c.WatchInterval = 250 * time.Millisecond
	}
}

// Admission-control errors; the HTTP layer maps them onto 429/503 with
// a Retry-After header.
var (
	// ErrQueueFull rejects a submission when MaxQueue jobs are waiting.
	ErrQueueFull = errors.New("job queue full")
	// ErrOverloaded rejects a submission while the worker pool is
	// saturated past the shed high-water mark.
	ErrOverloaded = errors.New("worker pool saturated, shedding load")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("service is draining")
)

// Job is one campaign job. All mutable fields are guarded by the
// manager's mutex; Done is closed exactly once, on entry to a terminal
// state.
type Job struct {
	ID   string
	Spec CampaignSpec

	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	seq      int // submission order, the FIFO key within a priority

	cancel context.CancelFunc

	attempt     int
	deadline    time.Time
	deadlineHit bool
	userCancel  bool
	recovered   bool
	retryTimer  *time.Timer
	ckpt        *csnake.Checkpoint
	reportFile  string

	rounds       []report.JSONRound
	rep          *csnake.Report
	json         *report.JSONReport
	bugs         []sysreg.Bug
	graphID      string
	earlyStopped bool
	sims         int

	// emitMu serializes event emission for this job: publish's fan-out,
	// Subscribe's backlog replay, and closeSubs' channel closes. Lock
	// order: emitMu strictly before Manager.mu. It exists so offers to
	// subscriber channels happen outside the manager-wide lock.
	emitMu sync.Mutex
	subs   []*subscriber
	done   chan struct{}
}

// Manager owns the job table, the run queue, and the shared worker pool.
type Manager struct {
	cfg   Config
	pool  *harness.TokenPool
	store *GraphStore
	start time.Time

	// jl is the durable job journal (nil without a data directory). jmu
	// serializes journal appends against compaction; it is never
	// acquired while holding mu (compaction takes jmu then mu).
	jl  *journal
	jmu sync.Mutex

	stopWatch chan struct{}
	closeOnce sync.Once

	// roundHook, when set (tests only, before any submission), runs
	// synchronously on the campaign goroutine after each sealed round --
	// the deterministic way to catch a job mid-flight.
	roundHook func(j *Job, round int)

	// monMu guards the monitor table. Lock ordering: monMu is a leaf --
	// never acquire mu or call jlog/engine methods while holding it (an
	// engine's own lock is held across ingestion, and Stats would block
	// behind it).
	monMu    sync.Mutex
	mons     map[string]*monitorRuntime
	monOrder []string // creation order, for listing
	monSeq   int

	// Lifetime monitor counters (survive monitor deletion), updated by
	// the ingest handler.
	monRecords atomic.Int64
	monSkipped atomic.Int64
	monAlerts  atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    []*Job   // waiting jobs; popBest picks (priority desc, seq asc)
	running  int
	nextID   int
	draining bool

	// lifetime counters for /metrics
	simsTotal         int64
	roundsTotal       int64
	prefix            harness.CheckpointStats // summed over finished jobs
	succeeded         int
	failed            int
	cancelled         int
	retries           int64
	resumed           int64
	panics            int64
	admissionRejected int64
}

func errUnknownJob(id string) error { return fmt.Errorf("unknown job %q", id) }

// NewManager builds a manager (and its graph store) from cfg. With a
// data directory it also opens the job journal, replays it, and
// re-queues every job the previous daemon left unfinished.
func NewManager(cfg Config) (*Manager, error) {
	cfg.defaults()
	store, err := NewGraphStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		pool:      harness.NewTokenPool(cfg.Workers),
		store:     store,
		start:     time.Now(),
		jobs:      make(map[string]*Job),
		mons:      make(map[string]*monitorRuntime),
		stopWatch: make(chan struct{}),
	}
	if cfg.DataDir != "" {
		jl, err := openJournal(filepath.Join(cfg.DataDir, "jobs"))
		if err != nil {
			return nil, err
		}
		m.jl = jl
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	go m.watchdog()
	m.schedule()
	return m, nil
}

// Store returns the graph artifact store.
func (m *Manager) Store() *GraphStore { return m.store }

// Pool returns the shared worker-token pool.
func (m *Manager) Pool() *harness.TokenPool { return m.pool }

// jlog appends a journal record (no-op without a journal) and compacts
// the journal when it outgrows the high-water mark. Callers must not
// hold m.mu.
func (m *Manager) jlog(rec journalRecord) {
	if m.jl == nil {
		return
	}
	m.jmu.Lock()
	if err := m.jl.append(rec); err != nil {
		log.Printf("csnaked: journal append: %v", err)
	}
	m.jmu.Unlock()
	if m.jl.oversize() {
		m.compactJournal()
	}
}

// compactJournal rewrites the journal to the minimal record set that
// reproduces the current job table. jmu blocks concurrent appends for
// the duration, so no record written after the snapshot can be lost.
func (m *Manager) compactJournal() {
	if m.jl == nil {
		return
	}
	m.jmu.Lock()
	defer m.jmu.Unlock()
	m.mu.Lock()
	recs := m.snapshotRecordsLocked()
	m.mu.Unlock()
	m.monMu.Lock()
	recs = append(recs, m.monitorRecordsLocked()...)
	m.monMu.Unlock()
	if err := m.jl.rewrite(recs); err != nil {
		log.Printf("csnaked: journal compaction: %v", err)
	}
}

// snapshotRecordsLocked renders the job table as journal records:
// a submit per job, round + checkpoint markers for unfinished anytime
// jobs (terminal jobs keep their rounds in the report file), and the
// latest state. Caller holds m.mu.
func (m *Manager) snapshotRecordsLocked() []journalRecord {
	var recs []journalRecord
	for _, id := range m.order {
		j := m.jobs[id]
		spec := j.Spec
		recs = append(recs, journalRecord{T: "submit", Job: j.ID, Seq: j.seq, Spec: &spec, Created: j.created})
		if !j.state.Terminal() {
			for i := range j.rounds {
				r := j.rounds[i]
				recs = append(recs, journalRecord{T: "round", Job: j.ID, Round: &r})
			}
			if j.ckpt != nil {
				recs = append(recs, journalRecord{T: "ckpt", Job: j.ID, Rounds: j.ckpt.Rounds})
			}
		}
		recs = append(recs, journalRecord{
			T: "state", Job: j.ID, State: j.state, Error: j.err, Attempt: j.attempt,
			At: j.finished, GraphID: j.graphID, Report: j.reportFile,
			Sims: j.sims, EarlyStopped: j.earlyStopped,
		})
	}
	return recs
}

// Submit validates spec, enqueues a job for it, and starts it
// immediately if a run slot is free. It rejects submissions while the
// service drains (ErrDraining), when MaxQueue jobs already wait
// (ErrQueueFull), and when the pool is shed-saturated (ErrOverloaded).
func (m *Manager) Submit(spec CampaignSpec) (*JobStatus, error) {
	if _, _, err := spec.Resolve(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.MaxQueue {
		m.admissionRejected++
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d waiting)", ErrQueueFull, m.cfg.MaxQueue)
	}
	if hw := m.cfg.ShedHighWater; hw > 0 && float64(m.pool.InUse()) >= hw*float64(m.pool.Cap()) {
		m.admissionRejected++
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d/%d tokens held)", ErrOverloaded, m.pool.InUse(), m.pool.Cap())
	}
	m.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", m.nextID),
		Spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		seq:     m.nextID,
		done:    make(chan struct{}),
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	// Journal the submission before the job becomes runnable, so no
	// state record can ever precede its submit record.
	m.jlog(journalRecord{T: "submit", Job: j.ID, Seq: j.seq, Spec: &spec, Created: j.created})
	m.mu.Lock()
	m.queue = append(m.queue, j)
	m.mu.Unlock()
	m.schedule()
	return m.Status(j.ID)
}

// schedule starts queued jobs while run slots are free.
func (m *Manager) schedule() {
	for {
		m.mu.Lock()
		if m.draining || m.running >= m.cfg.MaxJobs || len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.popBest()
		m.running++
		j.state = StateRunning
		j.attempt++
		j.deadlineHit = false
		if j.started.IsZero() {
			j.started = time.Now()
		}
		if j.Spec.DeadlineMS > 0 {
			j.deadline = time.Now().Add(time.Duration(j.Spec.DeadlineMS) * time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		att := j.attempt
		m.mu.Unlock()
		m.jlog(journalRecord{T: "state", Job: j.ID, State: StateRunning, Attempt: att, At: time.Now()})
		go m.runJob(j, ctx)
	}
}

// popBest removes and returns the highest-priority (then oldest) queued
// job. Caller holds m.mu.
func (m *Manager) popBest() *Job {
	best := 0
	for i, j := range m.queue[1:] {
		b := m.queue[best]
		if j.Spec.Priority > b.Spec.Priority || (j.Spec.Priority == b.Spec.Priority && j.seq < b.seq) {
			best = i + 1
		}
	}
	j := m.queue[best]
	m.queue = append(m.queue[:best], m.queue[best+1:]...)
	return j
}

// runJob executes one campaign attempt to completion. The recover
// barrier is the crash-isolation boundary: a panic anywhere in the
// campaign (the harness re-raises worker-goroutine panics here) marks
// the job failed -- capturing the panic value and stack into the job's
// error -- and leaves the daemon and its other jobs untouched.
func (m *Manager) runJob(j *Job, ctx context.Context) {
	var rep *csnake.Report
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.mu.Lock()
				m.panics++
				m.mu.Unlock()
				err = fmt.Errorf("campaign panicked: %v\n%s", r, debug.Stack())
			}
		}()
		rep, err = m.runCampaign(j, ctx)
	}()
	m.finish(j, rep, err, true)
	m.schedule()
}

// runCampaign resolves and runs the job's campaign, resuming from the
// job's checkpoint when one is loaded. A checkpoint the campaign
// rejects (ErrResume -- e.g. the spec changed shape across a daemon
// upgrade) is discarded and the campaign re-runs from scratch.
func (m *Manager) runCampaign(j *Job, ctx context.Context) (*csnake.Report, error) {
	sys, opts, err := j.Spec.Resolve()
	if err != nil { // validated at submit; re-resolution cannot regress
		return nil, err
	}
	m.mu.Lock()
	j.bugs = sys.Bugs()
	ckpt := j.ckpt
	m.mu.Unlock()

	for {
		runOpts := append(append([]csnake.Option(nil), opts...),
			csnake.WithContext(ctx),
			csnake.WithWorkerPool(m.pool),
			csnake.WithObserver(&jobObserver{m: m, j: j}),
		)
		// Batch campaigns seal no rounds, so only round-based ones ever
		// emit a checkpoint.
		if m.jl != nil {
			runOpts = append(runOpts, csnake.WithCheckpoints(func(cp *csnake.Checkpoint) {
				m.saveCheckpoint(j, cp)
			}))
		}
		if ckpt != nil {
			runOpts = append(runOpts, csnake.WithResume(ckpt))
		}
		rep, err := csnake.NewCampaign(sys, runOpts...).Run()
		if err != nil && errors.Is(err, csnake.ErrResume) {
			log.Printf("csnaked: job %s: discarding stale checkpoint: %v", j.ID, err)
			m.mu.Lock()
			j.ckpt = nil
			j.rounds = nil
			m.mu.Unlock()
			if m.jl != nil {
				m.jl.removeCheckpoint(j.ID)
			}
			ckpt = nil
			continue
		}
		return rep, err
	}
}

// saveCheckpoint persists an anytime job's round checkpoint (atomic
// side file + journal marker). Runs on the campaign goroutine between
// rounds; persistence failures only shorten how far a crash can resume
// from, never fail the round.
func (m *Manager) saveCheckpoint(j *Job, cp *csnake.Checkpoint) {
	data, err := json.Marshal(cp)
	if err != nil {
		return
	}
	if err := m.jl.writeCheckpoint(j.ID, data); err != nil {
		log.Printf("csnaked: job %s: checkpoint: %v", j.ID, err)
		return
	}
	m.mu.Lock()
	j.ckpt = cp
	m.mu.Unlock()
	m.jlog(journalRecord{T: "ckpt", Job: j.ID, Rounds: cp.Rounds})
}

// retryBackoff is the wait before attempt n+1: RetryBase << (n-1),
// capped at 5s.
func (m *Manager) retryBackoff(attempt int) time.Duration {
	d := m.cfg.RetryBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= 5*time.Second {
			return 5 * time.Second
		}
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// requeue returns a retry-waiting job to the run queue once its backoff
// elapses.
func (m *Manager) requeue(j *Job) {
	m.mu.Lock()
	j.retryTimer = nil
	if j.state != StateQueued {
		m.mu.Unlock()
		return
	}
	for _, q := range m.queue {
		if q == j {
			m.mu.Unlock()
			return
		}
	}
	m.queue = append(m.queue, j)
	m.mu.Unlock()
	m.schedule()
}

// finish routes a completed attempt: success, failure (with retry when
// attempts remain), cancellation, or -- during a graceful drain --
// interruption, which journals the job for resume at next boot instead
// of closing it. Terminal transitions persist the report, drop the
// resume checkpoint, and notify subscribers. Safe to call once per
// attempt; calls racing a terminal state are ignored.
//
// running says the attempt holds a run slot. finish frees it after the
// outcome is journaled and before it is published, so nobody woken by
// the outcome (Await, subscribers) sees the slot still held, and Drain,
// which waits for every slot, returns only once the outcome is on disk.
func (m *Manager) finish(j *Job, rep *csnake.Report, err error, running bool) {
	release := func() {
		if running {
			m.mu.Lock()
			m.running--
			m.mu.Unlock()
		}
	}
	m.mu.Lock()
	if j.state.Terminal() {
		m.mu.Unlock()
		release()
		return
	}
	if rep != nil {
		j.sims = rep.Sims
		m.simsTotal += int64(rep.Sims)
		st := rep.Checkpoint
		m.prefix.PrefixRuns += st.PrefixRuns
		m.prefix.Hits += st.Hits
		m.prefix.Clones += st.Clones
		m.prefix.Misses += st.Misses
	}

	// Classify the attempt's outcome.
	var state JobState
	switch {
	case err == nil:
		state = StateSucceeded
		j.err = ""
	case errors.Is(err, context.Canceled) && j.deadlineHit:
		state = StateFailed
		j.err = "deadline_exceeded"
	case errors.Is(err, context.Canceled) && m.draining && !j.userCancel:
		state = StateInterrupted
		j.err = "interrupted by shutdown"
	case errors.Is(err, context.Canceled):
		state = StateCancelled
		j.err = err.Error()
	default:
		state = StateFailed
		j.err = err.Error()
	}

	// Interrupted: journal and stop, but stay non-terminal -- the next
	// boot re-queues the job and it resumes from its last checkpoint.
	if state == StateInterrupted {
		j.state = StateInterrupted
		j.cancel = nil
		id, errMsg, att, sims := j.ID, j.err, j.attempt, j.sims
		m.mu.Unlock()
		m.jlog(journalRecord{T: "state", Job: id, State: StateInterrupted, Error: errMsg, Attempt: att, Sims: sims, At: time.Now()})
		release()
		m.publish(j, Event{Type: "state", Job: id, State: StateInterrupted, Error: errMsg, Attempt: att})
		m.closeSubs(j)
		return
	}

	// Failed with attempts remaining: back off and retry (unless the
	// service is draining or the user cancelled mid-failure).
	if state == StateFailed && !m.draining && !j.userCancel && j.attempt < j.Spec.MaxAttempts {
		j.state = StateQueued
		j.cancel = nil
		m.retries++
		backoff := m.retryBackoff(j.attempt)
		j.retryTimer = time.AfterFunc(backoff, func() { m.requeue(j) })
		id, errMsg, att := j.ID, j.err, j.attempt
		m.mu.Unlock()
		m.jlog(journalRecord{T: "state", Job: id, State: StateQueued, Error: errMsg, Attempt: att, At: time.Now()})
		release()
		m.publish(j, Event{Type: "state", Job: id, State: StateQueued, Error: errMsg, Attempt: att})
		return
	}

	j.state = state
	switch state {
	case StateSucceeded:
		m.succeeded++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	j.finished = time.Now()
	if rep != nil {
		j.rep = rep
		j.earlyStopped = rep.EarlyStopped
		j.json = report.NewJSON(rep, j.bugs)
		m.spliceRecoveredRoundsLocked(j)
	}
	var toStore *csnake.Report
	if j.state == StateSucceeded && rep != nil && rep.Graph != nil {
		toStore = rep
	}
	st, errMsg, id, att := j.state, j.err, j.ID, j.attempt
	js := j.json
	m.mu.Unlock()

	if toStore != nil {
		if art, perr := m.store.Put("campaign:"+id, toStore.Graph); perr == nil {
			m.mu.Lock()
			j.graphID = art.Info.ID
			m.mu.Unlock()
		}
	}
	if m.jl != nil {
		if st == StateSucceeded && js != nil {
			if data, jerr := json.Marshal(js); jerr == nil {
				if name, werr := m.jl.writeReport(id, data); werr == nil {
					m.mu.Lock()
					j.reportFile = name
					m.mu.Unlock()
				}
			}
		}
		m.jl.removeCheckpoint(id)
	}
	m.mu.Lock()
	rec := journalRecord{
		T: "state", Job: id, State: st, Error: errMsg, Attempt: att, At: j.finished,
		GraphID: j.graphID, Report: j.reportFile, Sims: j.sims, EarlyStopped: j.earlyStopped,
	}
	m.mu.Unlock()
	m.jlog(rec)
	release()
	m.publish(j, Event{Type: "state", Job: id, State: st, Error: errMsg, Attempt: att})
	m.closeSubs(j)
	close(j.done)
}

// spliceRecoveredRoundsLocked completes a resumed job's report: the
// campaign only re-ran rounds after the checkpoint, so the rounds the
// journal preserved from before the crash are spliced back in front.
// The spliced sequence is exactly what an uninterrupted run would have
// produced (both encodings are pure functions of identical rounds).
// Caller holds m.mu.
func (m *Manager) spliceRecoveredRoundsLocked(j *Job) {
	js := j.json
	if js == nil || len(j.rounds) == 0 {
		return
	}
	if len(js.Rounds) == 0 {
		// The resumed campaign ran no new rounds (e.g. it crashed after
		// the round that satisfied early stopping): the journal's rounds
		// are the whole trajectory.
		js.Rounds = append([]report.JSONRound(nil), j.rounds...)
	} else if first := js.Rounds[0].Round; first > 1 && first-1 <= len(j.rounds) {
		js.Rounds = append(append([]report.JSONRound(nil), j.rounds[:first-1]...), js.Rounds...)
	}
	if js.Budget == 0 && len(js.Rounds) > 0 {
		js.Budget = js.Rounds[len(js.Rounds)-1].Budget
	}
}

// watchdog scans running jobs for blown deadlines and cancels them; the
// attempt then fails with "deadline_exceeded" (and retries, if the spec
// allows attempts).
func (m *Manager) watchdog() {
	t := time.NewTicker(m.cfg.WatchInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopWatch:
			return
		case <-t.C:
			now := time.Now()
			var cancels []context.CancelFunc
			m.mu.Lock()
			for _, j := range m.jobs {
				if j.state == StateRunning && !j.deadline.IsZero() && now.After(j.deadline) && !j.deadlineHit {
					j.deadlineHit = true
					if j.cancel != nil {
						cancels = append(cancels, j.cancel)
					}
				}
			}
			m.mu.Unlock()
			for _, c := range cancels {
				c()
			}
		}
	}
}

// Drain gracefully stops the manager: admissions are rejected, queued
// jobs stay journaled as queued, and running jobs are cancelled -- they
// finish as interrupted, resumable from their last sealed round at the
// next boot. Drain returns once no job is running, or with ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for {
		m.mu.Lock()
		n := m.running
		m.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close stops the watchdog and releases the journal handle. Idempotent.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stopWatch)
		if m.jl != nil {
			m.jl.close()
		}
	})
}

// HardStop simulates a daemon crash (kill -9) for tests: journal and
// side-file writes are frozen at their last completed state, then all
// running campaigns are cancelled so their goroutines exit. Nothing
// that happens after a HardStop reaches disk -- a manager booted on the
// same data directory sees exactly what a real crash would have left.
func (m *Manager) HardStop() {
	if m.jl != nil {
		m.jl.disable()
	}
	m.closeOnce.Do(func() { close(m.stopWatch) })
	m.mu.Lock()
	m.draining = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Cancel cancels a job: a queued job (including one waiting out a retry
// backoff) moves straight to cancelled, a running one has its context
// cancelled (the campaign unwinds and the job finishes as cancelled).
// Cancelling a terminal job is a no-op that reports the job's
// existence.
func (m *Manager) Cancel(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, errUnknownJob(id)
	}
	j.userCancel = true
	if t := j.retryTimer; t != nil {
		t.Stop()
		j.retryTimer = nil
	}
	if j.state == StateQueued {
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		m.finish(j, nil, context.Canceled, false)
		return m.Status(id)
	}
	cancel := j.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return m.Status(id)
}

// Await blocks until the job reaches a terminal state and returns its
// final status.
func (m *Manager) Await(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, errUnknownJob(id)
	}
	<-j.done
	return m.Status(id)
}

// Status returns a point-in-time copy of one job's status.
func (m *Manager) Status(id string) (*JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, errUnknownJob(id)
	}
	return m.statusLocked(j), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []*JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

func (m *Manager) statusLocked(j *Job) *JobStatus {
	st := &JobStatus{
		ID:           j.ID,
		State:        j.state,
		Spec:         j.Spec,
		Created:      j.created,
		Error:        j.err,
		Sims:         j.sims,
		Rounds:       append([]report.JSONRound(nil), j.rounds...),
		EarlyStopped: j.earlyStopped,
		GraphID:      j.graphID,
		Attempt:      j.attempt,
		Resumed:      j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == StateQueued {
		// Position among waiting jobs in dispatch order.
		pos := 1
		for _, q := range m.queue {
			if q == j {
				continue
			}
			if q.Spec.Priority > j.Spec.Priority || (q.Spec.Priority == j.Spec.Priority && q.seq < j.seq) {
				pos++
			}
		}
		st.QueuePosition = pos
	}
	return st
}

// Report returns the finished job's machine-readable report.
func (m *Manager) Report(id string) (*report.JSONReport, *JobStatus, error) {
	st, err := m.Status(id)
	if err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	j := m.jobs[id]
	rj := j.json
	m.mu.Unlock()
	if rj == nil {
		return nil, st, fmt.Errorf("job %s has no report (state %s)", id, st.State)
	}
	return rj, st, nil
}

// jobObserver bridges campaign events into the job: it captures the
// driver-independent progress (rounds) and fans it out to subscribers.
// Campaign observers may be called from pool goroutines; everything here
// locks through the manager.
type jobObserver struct {
	csnake.NopObserver
	m *Manager
	j *Job
}

func (o *jobObserver) RoundCompleted(r csnake.Round) {
	jr := report.JSONRoundOf(r, o.j.bugs)
	o.m.mu.Lock()
	// Rounds index by their 1-based number: a resumed campaign continues
	// after the journal-restored prefix, a retried one starts over at
	// round 1 (truncating the failed attempt's trajectory).
	if jr.Round >= 1 && jr.Round <= len(o.j.rounds)+1 {
		o.j.rounds = append(o.j.rounds[:jr.Round-1], jr)
	} else {
		o.j.rounds = append(o.j.rounds, jr)
	}
	o.m.roundsTotal++
	o.m.mu.Unlock()
	o.m.jlog(journalRecord{T: "round", Job: o.j.ID, Round: &jr})
	o.m.publish(o.j, Event{Type: "round", Job: o.j.ID, Round: &jr})
	if h := o.m.roundHook; h != nil {
		h(o.j, jr.Round)
	}
}
