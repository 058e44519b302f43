// This file is the boot-time recovery path: replay the job journal,
// rebuild the job table, and re-queue every job that was queued,
// running, or interrupted when the previous daemon stopped. A job with
// a resume checkpoint (only round-based campaigns seal rounds and write
// one) continues from its last sealed round; the rest -- batch jobs, and
// jobs whose checkpoint is missing or stale -- re-run from scratch.
// Replay is idempotent: records duplicated by a crash between append and
// compaction coalesce into the same job states.

package service

import (
	"encoding/json"
	"log"

	"repro/internal/core/csnake"
	"repro/internal/report"
)

// recover rebuilds the manager's job table from the journal. Called
// from NewManager before the watchdog and scheduler start, so it needs
// no locking.
func (m *Manager) recover() error {
	recs, skipped, err := m.jl.replay()
	if err != nil {
		return err
	}
	if skipped > 0 {
		log.Printf("csnaked: journal replay skipped %d unparseable record(s)", skipped)
	}
	if len(recs) == 0 {
		return nil
	}

	// Fold the record stream into per-job state (last write wins; rounds
	// truncate-append exactly as the live observer does, so a retried
	// attempt's rounds overwrite the failed one's).
	ckptRounds := make(map[string]int)
	for _, rec := range recs {
		switch rec.T {
		case "submit":
			if _, ok := m.jobs[rec.Job]; ok || rec.Spec == nil {
				continue // idempotence: duplicate submit records coalesce
			}
			j := &Job{
				ID:      rec.Job,
				Spec:    *rec.Spec,
				state:   StateQueued,
				created: rec.Created,
				seq:     rec.Seq,
				done:    make(chan struct{}),
			}
			m.jobs[j.ID] = j
			m.order = append(m.order, j.ID)
			if rec.Seq > m.nextID {
				m.nextID = rec.Seq
			}
		case "state":
			j, ok := m.jobs[rec.Job]
			if !ok {
				continue
			}
			j.state = rec.State
			j.err = rec.Error
			j.attempt = rec.Attempt
			if rec.State == StateRunning && j.started.IsZero() {
				j.started = rec.At
			}
			if rec.State.Terminal() {
				j.finished = rec.At
			}
			if rec.GraphID != "" {
				j.graphID = rec.GraphID
			}
			if rec.Report != "" {
				j.reportFile = rec.Report
			}
			if rec.Sims != 0 {
				j.sims = rec.Sims
			}
			if rec.EarlyStopped {
				j.earlyStopped = true
			}
		case "round":
			j, ok := m.jobs[rec.Job]
			if !ok || rec.Round == nil {
				continue
			}
			jr := *rec.Round
			if jr.Round >= 1 && jr.Round <= len(j.rounds)+1 {
				j.rounds = append(j.rounds[:jr.Round-1], jr)
			} else {
				j.rounds = append(j.rounds, jr)
			}
		case "ckpt":
			if _, ok := m.jobs[rec.Job]; ok {
				ckptRounds[rec.Job] = rec.Rounds
			}
		case "mon-create":
			if rec.MonSpec == nil {
				continue
			}
			if _, ok := m.mons[rec.Job]; ok {
				continue // idempotence: duplicate create records coalesce
			}
			rt := newMonitorRuntime(rec.Job, rec.Seq, *rec.MonSpec, rec.Created)
			m.mons[rt.id] = rt
			m.monOrder = append(m.monOrder, rt.id)
			if rec.Seq > m.monSeq {
				m.monSeq = rec.Seq
			}
		case "mon-delete":
			if _, ok := m.mons[rec.Job]; ok {
				delete(m.mons, rec.Job)
				for i, id := range m.monOrder {
					if id == rec.Job {
						m.monOrder = append(m.monOrder[:i], m.monOrder[i+1:]...)
						break
					}
				}
			}
			if rec.Seq > m.monSeq {
				m.monSeq = rec.Seq
			}
		}
	}

	// Settle each job: terminal jobs are served from their persisted
	// report; everything else goes back on the queue.
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() {
			switch j.state {
			case StateSucceeded:
				m.succeeded++
			case StateFailed:
				m.failed++
			case StateCancelled:
				m.cancelled++
			}
			if data := m.jl.readReport(j.reportFile); data != nil {
				var js report.JSONReport
				if err := json.Unmarshal(data, &js); err == nil {
					j.json = &js
					j.rounds = append([]report.JSONRound(nil), js.Rounds...)
					j.earlyStopped = js.EarlyStopped
				} else {
					log.Printf("csnaked: job %s: skipping corrupt report %s: %v", id, j.reportFile, err)
				}
			}
			m.simsTotal += int64(j.sims)
			m.roundsTotal += int64(len(j.rounds))
			close(j.done)
			continue
		}

		// The job was queued, running, or interrupted at the crash:
		// re-queue it. Running/interrupted jobs count as resumed.
		if j.state != StateQueued {
			j.recovered = true
			m.resumed++
		}
		j.state = StateQueued

		resumable := false
		if data := m.jl.readCheckpoint(id); data != nil {
			var cp csnake.Checkpoint
			if err := json.Unmarshal(data, &cp); err != nil {
				log.Printf("csnaked: job %s: skipping corrupt checkpoint: %v", id, err)
			} else if want, ok := ckptRounds[id]; ok && cp.Rounds != want {
				// The journal and side file disagree (crash between the
				// two writes): trust neither, re-run from scratch.
				log.Printf("csnaked: job %s: checkpoint covers %d rounds, journal says %d: re-running from scratch", id, cp.Rounds, want)
			} else if cp.Rounds > len(j.rounds) {
				log.Printf("csnaked: job %s: checkpoint covers %d rounds but journal replayed %d: re-running from scratch", id, cp.Rounds, len(j.rounds))
			} else {
				j.ckpt = &cp
				j.rounds = j.rounds[:cp.Rounds]
				resumable = true
			}
		}
		if !resumable {
			// Scratch re-run: the trajectory will be regenerated.
			j.ckpt = nil
			j.rounds = nil
			m.jl.removeCheckpoint(id)
		} else {
			m.roundsTotal += int64(len(j.rounds))
		}
		m.queue = append(m.queue, j)
	}

	// Rotate the replayed journal down to the minimal equivalent record
	// set, so repeated crash/restart cycles don't grow it unboundedly.
	recs = append(m.snapshotRecordsLocked(), m.monitorRecordsLocked()...)
	if err := m.jl.rewrite(recs); err != nil {
		log.Printf("csnaked: boot journal compaction: %v", err)
	}
	return nil
}
