package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/machine"
	"repro/internal/parser"
)

// The corpus is the four examples/l4i shapes with their size literal
// generated. fib is spawn/touch-bound (one helper thread per level),
// seq is evaluator-bound (two deep sequential recursions, two threads),
// counter and pipeline are ref-bound and so short that creating and
// tearing down the runtime dominates them.
const (
	fibTemplate = `priority low
priority high
order low < high

main : nat @ low = {
  let fib = fix f : nat -> nat cmd[low] is
    fn n : nat => ifz n {
      cmd[low]{ ret 0 }
    ; m . cmd[low]{
        h <- cmd[low]{ fcreate[high; nat] { ret m } };
        a <- f m;
        b <- cmd[low]{ ftouch h };
        ret (ifz b { a ; k . k })
      }
    } in
  x <- fib %d;
  ret x
}
`
	seqTemplate = `priority bg
priority fg
order bg < fg

main : nat @ bg = {
  let a = 1 in
  let b = 2 in
  let c = 3 in
  let d = 4 in
  let e = 5 in
  let t1 = a in
  let t2 = t1 in
  let t3 = t2 in
  let t4 = t3 in
  let t5 = t4 in
  let t6 = t5 in
  let t7 = t6 in
  let t8 = t7 in
  let a = t8 in
  let pick = fn n : nat => ifz n { d ; k . k } in
  let down = fix f : nat -> nat cmd[bg] is
    fn n : nat => ifz n {
      cmd[bg]{ ret (pick (ifz a { a ; k . k })) }
    ; m . cmd[bg]{ r <- f m; ret r }
    } in
  h <- cmd[bg]{ fcreate[fg; nat] {
    let downf = fix g : nat -> nat cmd[fg] is
      fn n : nat => ifz n {
        cmd[fg]{ ret e }
      ; m . cmd[fg]{ r <- g m; ret r }
      } in
    x <- downf %[1]d;
    ret x
  } };
  u <- down %[1]d;
  s1 <- cmd[bg]{ ret u };
  s2 <- cmd[bg]{ ret s1 };
  s3 <- cmd[bg]{ ret s2 };
  s4 <- cmd[bg]{ ret s3 };
  s5 <- cmd[bg]{ ret s4 };
  s6 <- cmd[bg]{ ret s5 };
  v <- cmd[bg]{ ftouch h };
  ret (ifz v { s6 ; k . k })
}
`
	counterSource = `priority lo
priority hi
order lo < hi

main : nat @ lo = {
  dcl cnt : nat := 0 in
  h <- cmd[lo]{ fcreate[hi; nat] {
    a <- cmd[hi]{ cas(cnt, 0, 3) };
    ret a
  } };
  won <- cmd[lo]{ ftouch h };
  b <- (ifz won { cmd[lo]{ ret 0 } ; k . cmd[lo]{ cas(cnt, 3, 7) } });
  w <- cmd[lo]{ cnt := 9 };
  r <- cmd[lo]{ !cnt };
  ret r
}
`
	pipelineSource = `priority p

main : nat @ p = {
  dcl input : nat := 0 in
  dcl output : nat := 0 in
  w <- cmd[p]{ input := 5 };
  s1 <- cmd[p]{ fcreate[p; nat] {
    v <- cmd[p]{ !input };
    u <- cmd[p]{ output := v };
    ret v
  } };
  a <- cmd[p]{ ftouch s1 };
  s2 <- cmd[p]{ fcreate[p; nat] { v <- cmd[p]{ !output }; ret v } };
  b <- cmd[p]{ ftouch s2 };
  ret b
}
`
)

// l4iProgram is one corpus program and the value the machine simulator
// computes for it — the reference every compiled run is compared with.
type l4iProgram struct {
	name string
	src  string
	want string
}

// corpusShapes lists the generated programs: shape and size.
var corpusShapes = []struct {
	name     string
	template string
	size     int // 0: the template has no size literal
}{
	{"fib16", fibTemplate, 16},
	{"fib64", fibTemplate, 64},
	{"fib256", fibTemplate, 256},
	{"seq24", seqTemplate, 24},
	{"seq256", seqTemplate, 256},
	{"counter", counterSource, 0},
	{"pipeline", pipelineSource, 0},
}

// generateCorpus returns the corpus sources (without reference values).
func generateCorpus() []l4iProgram {
	out := make([]l4iProgram, len(corpusShapes))
	for i, s := range corpusShapes {
		src := s.template
		if s.size > 0 {
			src = fmt.Sprintf(s.template, s.size)
		}
		out[i] = l4iProgram{name: s.name, src: src}
	}
	return out
}

// corpusOrder yields program indices for the driver to run in turn:
// consecutive seeded permutations of the corpus, so every stretch of
// the run holds each shape equally often and the seed decides only the
// order.
type corpusOrder struct {
	rng  splitmix
	perm []int
	pos  int
}

func newCorpusOrder(seed int64, programs int) *corpusOrder {
	o := &corpusOrder{rng: splitmix(uint64(seed)), perm: make([]int, programs), pos: programs}
	for i := range o.perm {
		o.perm[i] = i
	}
	return o
}

func (o *corpusOrder) next() int {
	if o.pos == len(o.perm) {
		for i := len(o.perm) - 1; i > 0; i-- {
			j := int(o.rng.next() % uint64(i+1))
			o.perm[i], o.perm[j] = o.perm[j], o.perm[i]
		}
		o.pos = 0
	}
	o.pos++
	return o.perm[o.pos-1]
}

const simulatorMaxSteps = 10_000_000

// simulate runs src on the machine simulator and returns main's value.
func simulate(src string) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
	if err := mc.Run(machine.Prompt{P: serverWorkers}, simulatorMaxSteps); err != nil {
		return "", err
	}
	v, ok := mc.FinalValue("main")
	if !ok {
		return "", fmt.Errorf("simulator: main has no final value")
	}
	return v.String(), nil
}

// l4iStages are the instants of one pass of a source through the
// parser, the checker and the compiled backend.
type l4iStages struct {
	parsed, checked, ran time.Duration // since the pass began
	value                string
}

// runL4i takes src through parser.Parse, compile.Compile (typecheck and
// ceiling derivation) and Prog.Run on a fresh two-worker runtime.
func runL4i(src string) (l4iStages, error) {
	var st l4iStages
	t0 := time.Now()
	prog, err := parser.Parse(src)
	if err != nil {
		return st, err
	}
	st.parsed = time.Since(t0)
	cp, err := compile.Compile(prog, true)
	if err != nil {
		return st, err
	}
	st.checked = time.Since(t0)
	res, err := cp.Run(compile.RunConfig{Workers: serverWorkers})
	if err != nil {
		return st, err
	}
	st.ran = time.Since(t0)
	if v := res.Stats.CeilingViolations; v != 0 {
		return st, fmt.Errorf("%d ceiling violations", v)
	}
	st.value = strings.TrimSpace(res.Value.String())
	return st, nil
}
