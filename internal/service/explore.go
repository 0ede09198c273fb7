package service

import (
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// KindExploration is JobStatus.Kind for exploration jobs; scenario jobs
// leave Kind empty.
const KindExploration = "exploration"

// SubmitExploration parses, validates, and queues one exploration spec
// as a job. Exploration jobs share the queue, worker pool, polling,
// cancellation, and /result surface with scenario jobs, but are not
// themselves cached: the unit of caching is each probed case, keyed by
// its derived spec's content address, so re-running an exploration —
// or running a different exploration over overlapping design points —
// rides the memory→disk→peer tiers probe by probe.
//
// Submission errors: spec errors (reject with 400), ErrQueueFull (429),
// ErrDraining (503).
func (s *Server) SubmitExploration(specJSON []byte) (JobStatus, error) {
	es, err := explore.Parse(specJSON)
	if err != nil {
		return JobStatus{}, err
	}
	hash, err := es.Hash()
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if len(s.pending) >= s.cfg.queueDepth() {
		return JobStatus{}, ErrQueueFull
	}
	s.nextID++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextID),
		expl:     es,
		hash:     hash,
		state:    JobQueued,
		cancel:   make(chan struct{}),
		finished: make(chan struct{}),
	}
	s.pending = append(s.pending, j)
	s.cond.Signal()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneJobsLocked()
	return j.status(), nil
}

// runExploration executes one exploration job on a queue worker. The
// strategy and rendering run in internal/explore — the same code path
// as ehsim-explore — so the /result body is byte-identical to the CLI
// for the same spec; only the evaluator differs, and it differs only in
// where metrics come from (the tiered cache), never in what they are.
func (s *Server) runExploration(j *job) {
	s.mu.Lock()
	if j.state != JobQueued {
		s.mu.Unlock() // canceled while queued
		return
	}
	j.state = JobRunning
	s.mu.Unlock()

	rep, err := explore.Run(j.expl, explore.Options{
		Workers: s.cfg.SweepWorkers,
		Cancel:  j.cancel,
		Evaluate: func(sp *scenario.Spec) (explore.Outcome, error) {
			return s.evaluateProbe(j, sp)
		},
		Progress: func(done, total int) {
			s.mu.Lock()
			j.done, j.total = done, total
			s.mu.Unlock()
		},
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, sweep.ErrCanceled):
		j.state = JobCanceled
		s.jobsCanceled++
	case err != nil:
		j.state = JobFailed
		j.errText = err.Error()
		s.jobsFailed++
	default:
		j.state = JobDone
		j.source = SourceCompute
		// The exploration's report rides the scenario report type so the
		// /result endpoint (and job-record memory bounds) need no second
		// code path. SimSeconds counts only work actually computed here —
		// evaluateProbe already fed s.simSeconds per computed probe.
		j.report = &result.Report{Text: rep.Text, SimSeconds: rep.SimSeconds}
		if j.total > 0 {
			j.done = j.total
		}
		s.jobsDone++
		s.explorationsDone++
	}
	s.markFinishedLocked(j)
}

// evaluateProbe resolves one derived case for an exploration through
// the full cache hierarchy: memory (including riding another job's or
// exploration's in-flight computation), then disk CAS, then the owning
// peer, then local compute. Probes run untraced, exactly as
// result.RunExploration runs them: the explorer reads only metrics, so
// a probe's cache entry is its report text plus metrics, a few KB in
// memory, on disk and at the peer. A single-run job that later resolves
// to such an entry serves the same /result bytes, and its /trace is
// derived on demand (tracedReport).
func (s *Server) evaluateProbe(j *job, sp *scenario.Spec) (explore.Outcome, error) {
	hash, err := sp.Hash()
	if err != nil {
		return explore.Outcome{}, err
	}
	key := CacheKey(hash)

	for {
		// Begin under s.mu, like Submit: claims are ordered against job
		// submissions, so a probe and an identical spec's job dedup onto
		// one computation no matter which arrives first.
		s.mu.Lock()
		entry, claim := s.cache.Begin(key)
		if claim == Done {
			s.exploreProbes++
			s.exploreHits++
		}
		s.mu.Unlock()

		switch claim {
		case Done:
			return probeOutcome(entry.Report)

		case Wait:
			select {
			case <-entry.Done:
			case <-j.cancel:
				s.cache.Release(entry)
				return explore.Outcome{}, sweep.ErrCanceled
			}
			leadErr := entry.Err
			s.cache.Release(entry)
			if leadErr == nil {
				s.addPeerCounts(func() { s.exploreProbes++; s.exploreHits++ })
				return probeOutcome(entry.Report)
			}
			if errors.Is(leadErr, sweep.ErrCanceled) {
				continue // the leader we rode was canceled, not us: reclaim
			}
			return explore.Outcome{}, leadErr

		case Lead:
		}

		// Leading: cold tiers, then compute — all off s.mu.
		if rep, _ := s.fetchCold(key, hash, j.cancel); rep != nil {
			s.mu.Lock()
			s.exploreProbes++
			s.exploreHits++
			s.cache.Complete(key, rep)
			s.mu.Unlock()
			return probeOutcome(rep)
		}

		rep, err := result.RunSpec(sp, result.Options{
			Workers: s.cfg.SweepWorkers,
			Cancel:  j.cancel,
		})
		if err != nil {
			s.mu.Lock()
			s.cache.Abort(key, err)
			s.mu.Unlock()
			return explore.Outcome{}, err
		}

		// Write-through to disk before publishing, mirroring runJob: once
		// the entry is visible, a crash must not lose the only copy.
		if s.cfg.CAS != nil {
			if data, encErr := result.EncodeReport(rep); encErr == nil {
				s.cfg.CAS.Put(key, data)
			}
		}
		s.mu.Lock()
		s.exploreProbes++
		s.exploreMisses++
		s.simSeconds += rep.SimSeconds
		s.cache.Complete(key, rep)
		s.mu.Unlock()
		s.pushToOwner(hash, rep)

		out, err := probeOutcome(rep)
		if err == nil {
			out.SimSeconds = rep.SimSeconds
		}
		return out, err
	}
}

// probeOutcome extracts a cached or computed report's metrics for the
// explorer. Probes are sweep-free by construction, so the report holds
// exactly one case. SimSeconds is left zero: a served report did no new
// work (the computing path overrides it).
func probeOutcome(rep *result.Report) (explore.Outcome, error) {
	if len(rep.Cases) != 1 {
		return explore.Outcome{}, fmt.Errorf("service: probe resolved to %d cases, want 1", len(rep.Cases))
	}
	return explore.Outcome{Metrics: rep.Cases[0].Metrics}, nil
}
