package main

import (
	"math/rand"
	"strings"

	"marchgen/fault"
	"marchgen/internal/tpg"
)

// walkVocab is the random walk's alphabet: variant-level fault names that
// fault.Parse accepts, plus the two models that have no variant syntax.
// Retention (DRF) and linked (LCF) faults are left out: they route
// generation through the fallback search and the linked-fault grammar,
// whose cost is not what this workload is meant to measure.
var walkVocab = []string{
	"SA0", "SA1", "TF<u>", "TF<d>",
	"WDF<0>", "WDF<1>", "RDF<0>", "RDF<1>",
	"DRDF<0>", "DRDF<1>", "IRF<0>", "IRF<1>",
	"CFin<u>", "CFin<d>",
	"CFid<u,0>", "CFid<u,1>", "CFid<d,0>", "CFid<d,1>",
	"CFst<0,0>", "CFst<0,1>", "CFst<1,0>", "CFst<1,1>",
	"ADF", "SOF",
}

// faultmixMaxLen caps the entries of a faultmix list.
const faultmixMaxLen = 4

// faultmixMaxSelections caps a faultmix list's class selections, so
// per-call fixed costs (expand, validate, shrink, LUT compile, oracle
// set-up) are a larger share of generation time than on the Table 3 rows,
// and no rare 64-selection list dominates a run.
const faultmixMaxSelections = 4

// walkStride is the number of steps between emitted lists. Consecutive
// lists differ by many toggles, so a run's lists are close to independent
// draws and two seeds' runs cost about the same.
const walkStride = 24

// faultWalk is a seeded random walk over fault lists after Xuan et al.:
// each step toggles one vocabulary entry in the current set, and a set
// already emitted is skipped, so every list it returns is distinct.
type faultWalk struct {
	rng    *rand.Rand
	maxLen int // entries per list
	maxSel int // class selections per list
	cur    uint32
	seen   map[uint32]bool
	sels   map[uint32]int // selection count per visited set
}

func newFaultWalk(seed int64, maxLen, maxSel int) *faultWalk {
	return &faultWalk{rng: rand.New(rand.NewSource(seed)), maxLen: maxLen, maxSel: maxSel,
		seen: map[uint32]bool{}, sels: map[uint32]int{}}
}

// next returns the next unseen fault list in canonical (vocabulary) order.
func (w *faultWalk) next() string {
	for step := 1; ; step++ {
		if step > 1_000_000 {
			panic("fault walk: no unseen list within reach; the workload needs more distinct lists than the walk allows")
		}
		bit := uint32(1) << w.rng.Intn(len(walkVocab))
		nxt := w.cur ^ bit
		if nxt == 0 || popcount(nxt) > w.maxLen || w.selections(nxt) > w.maxSel {
			continue
		}
		w.cur = nxt
		if step < walkStride || w.seen[nxt] {
			continue
		}
		w.seen[nxt] = true
		return listString(nxt)
	}
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func listString(set uint32) string {
	var parts []string
	for i, name := range walkVocab {
		if set&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, ",")
}

func (w *faultWalk) selections(set uint32) int {
	if n, ok := w.sels[set]; ok {
		return n
	}
	models, err := fault.ParseList(listString(set))
	if err != nil {
		panic(err) // every vocabulary entry parses; TestFaultWalkDeterministicAndDistinct checks it
	}
	n := len(tpg.Selections(tpg.Classes(fault.Instances(models)), 64))
	w.sels[set] = n
	return n
}
