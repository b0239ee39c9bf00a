package main

import (
	"fmt"
	"time"
)

// l4iWarmupPrograms is the fixed warm-up count; with the simulator
// cross-check it makes set-up long enough to time repeatably.
const l4iWarmupPrograms = 3500

// l4iInst is the set-up l4i_corpus workload: the generated corpus with
// the simulator's value for each program.
type l4iInst struct {
	corpus []l4iProgram
	seed   int64
}

func setupL4i(seed int64) (instance, float64, error) {
	s := &l4iInst{corpus: generateCorpus(), seed: seed}
	rss, err := procRSSMB(selfPID)
	if err != nil {
		return nil, 0, err
	}
	// The reference values come from the machine simulator, never from
	// the backend under test.
	for i := range s.corpus {
		p := &s.corpus[i]
		if p.want, err = simulate(p.src); err != nil {
			return nil, 0, fmt.Errorf("%s: simulator: %w", p.name, err)
		}
	}
	order := newCorpusOrder(seed, len(s.corpus))
	for i := 0; i < l4iWarmupPrograms; i++ {
		if _, err := s.one(order.next()); err != nil {
			return nil, 0, err
		}
	}
	return s, rss, nil
}

func (s *l4iInst) close() error { return nil }

// one runs corpus program i through the whole pipeline and checks its
// value against the simulator's.
func (s *l4iInst) one(i int) (l4iStages, error) {
	p := s.corpus[i]
	st, err := runL4i(p.src)
	if err != nil {
		return st, fmt.Errorf("%s: %w", p.name, err)
	}
	if st.value != p.want {
		return st, fmt.Errorf("%s: compiled value %s, simulator %s", p.name, st.value, p.want)
	}
	return st, nil
}

// run is one driver in a closed loop: the next program starts when the
// previous one's value has been checked.
func (s *l4iInst) run(start time.Time, d time.Duration, tr *tracer) runData {
	end := start.Add(d)
	tb := tr.buf()
	order := newCorpusOrder(s.seed, len(s.corpus))
	out := make([]sample, 0, int(d.Seconds()*4000)+1024)
	var firstErr error
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		st, err := s.one(order.next())
		done := time.Now()
		out = append(out, sample{due: t0.Sub(start), done: done.Sub(start), ok: err == nil})
		if err != nil {
			firstErr = firstError(firstErr, err)
			continue
		}
		if tb != nil {
			op := opIDs.Add(1)
			tb.add(op, "program", "", t0, t0.Add(st.ran))
			tb.add(op, "parse", "program", t0, t0.Add(st.parsed))
			tb.add(op, "check", "program", t0.Add(st.parsed), t0.Add(st.checked))
			tb.add(op, "run", "program", t0.Add(st.checked), t0.Add(st.ran))
		}
	}
	return runData{fg: out, err: firstErr}
}
