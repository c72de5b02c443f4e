// Package diag implements March-test-based fault diagnosis — the
// direction of Niggemeyer, Redeker and Rudnick's output-tracing work
// (reference [6] of the reproduced paper): instead of a pass/fail verdict,
// the full trace of failing read operations (the syndrome) is kept and
// matched against a pre-computed fault dictionary to identify which defect
// is present.
//
// The dictionary is exact with respect to the repository's fault
// machinery: for every fault instance the simulator enumerates the
// possible syndromes (one per unknown initial memory content) of the March
// test under its canonical addressing resolution, and diagnosis returns
// precisely the instances consistent with an observed syndrome. Tests are
// assumed to start from a power-cycled (unknown) memory; a passing run is
// the empty syndrome and is consistent with a fault-free memory plus every
// instance the test does not guarantee to detect.
package diag

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/internal/sim"
	"marchgen/internal/simd"
	"marchgen/march"
)

// GoodName is the dictionary entry representing a fault-free memory.
const GoodName = "(fault-free)"

// Syndrome is the observable outcome of applying one March test: the
// flattened operation indices whose read-and-verify failed, in ascending
// order.
type Syndrome []int

// Key returns a canonical string form usable as a map key.
func (s Syndrome) Key() string {
	if len(s) == 0 {
		return "pass"
	}
	parts := make([]string, len(s))
	for k, op := range s {
		parts[k] = strconv.Itoa(op)
	}
	return strings.Join(parts, ",")
}

// Pass reports whether the syndrome is the passing outcome.
func (s Syndrome) Pass() bool { return len(s) == 0 }

// Dictionary maps the syndromes a March test can produce to the fault
// instances consistent with them.
type Dictionary struct {
	Test *march.Test
	// resolution is the canonical addressing resolution used on the
	// tester (⇕ elements applied ascending).
	resolution []march.Order
	// byInstance holds the deduplicated possible syndromes per instance.
	byInstance map[string][]Syndrome
	// bySyndrome holds the instances consistent with each syndrome key.
	bySyndrome map[string][]string
	// order preserves instance ordering for deterministic output.
	order []string
}

// Build computes the fault dictionary of a March test for a fault list.
func Build(t *march.Test, models []fault.Model) (*Dictionary, error) {
	d, _, err := BuildCtx(context.Background(), t, models, time.Time{})
	return d, err
}

// BuildCtx is Build with cancellation and an optional soft deadline,
// on the caller's goroutine. Instances are simulated in chunks of
// simd.BlockInstances, one sim.RunsBatch kernel block each, and ctx and
// the soft deadline are checked before every chunk. Cancelling ctx
// aborts the build with a typed error (budget.ErrCanceled /
// budget.ErrDeadlineExceeded). Once a non-zero soft deadline passes, the
// instances not yet simulated (a suffix of the list, cut at a chunk
// boundary) are omitted and truncated=true is returned: the partial
// dictionary still diagnoses the instances it covers, it just cannot
// rule out the omitted ones.
func BuildCtx(ctx context.Context, t *march.Test, models []fault.Model, soft time.Time) (*Dictionary, bool, error) {
	if err := sim.SelfConsistent(t); err != nil {
		return nil, false, err
	}
	resolutions, err := sim.Resolutions(t)
	if err != nil {
		return nil, false, err
	}
	d := &Dictionary{
		Test:       t,
		resolution: resolutions[0], // canonical: every ⇕ applied ascending
		byInstance: map[string][]Syndrome{},
		bySyndrome: map[string][]string{},
	}
	d.add(GoodName, Syndrome(nil))
	truncated := false
	insts := fault.Instances(models)
	run := obs.From(ctx)
	sp := run.StartUnder("diag/build").SetInt("instances", int64(len(insts)))
	defer func() {
		if truncated {
			sp.SetInt("truncated", 1)
		}
		sp.SetInt("syndromes", int64(len(d.bySyndrome))).End()
		run.Counter("diag.instances").Add(int64(len(insts)))
		run.Counter("diag.builds").Inc()
	}()
	for lo := 0; lo < len(insts); lo += simd.BlockInstances {
		if err := budget.CtxErr(ctx); err != nil {
			return nil, false, err
		}
		if !soft.IsZero() && time.Now().After(soft) {
			truncated = true
			break
		}
		chunk := insts[lo:min(lo+simd.BlockInstances, len(insts))]
		perInst, err := sim.RunsBatch(ctx, t, chunk, sim.Kernel)
		if err != nil {
			return nil, false, err
		}
		for k, runs := range perInst {
			for _, run := range runs {
				if sameResolution(run.Resolution, d.resolution) {
					d.add(chunk[k].Name, Syndrome(run.MismatchOps))
				}
			}
		}
	}
	return d, truncated, nil
}

func sameResolution(a, b []march.Order) bool {
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// add records a possible syndrome for an instance, deduplicating.
func (d *Dictionary) add(name string, s Syndrome) {
	if _, seen := d.byInstance[name]; !seen {
		d.order = append(d.order, name)
	}
	key := s.Key()
	for _, old := range d.byInstance[name] {
		if old.Key() == key {
			return
		}
	}
	d.byInstance[name] = append(d.byInstance[name], s)
	d.bySyndrome[key] = append(d.bySyndrome[key], name)
}

// Instances lists the dictionary's entries (including GoodName), in
// insertion order.
func (d *Dictionary) Instances() []string {
	return append([]string(nil), d.order...)
}

// Outcomes returns the possible syndromes of an instance (one per initial
// memory content that produces a distinct failure trace).
func (d *Dictionary) Outcomes(instance string) []Syndrome {
	return append([]Syndrome(nil), d.byInstance[instance]...)
}

// Diagnose returns the fault instances consistent with an observed
// syndrome, sorted. An unknown syndrome returns an empty slice — the
// defect is outside the modelled fault list.
func (d *Dictionary) Diagnose(s Syndrome) []string {
	sorted := append(Syndrome(nil), s...)
	sort.Ints(sorted)
	out := append([]string(nil), d.bySyndrome[sorted.Key()]...)
	sort.Strings(out)
	return out
}

// Distinguishes reports whether the test always separates instances a and
// b: no observable syndrome is consistent with both.
func (d *Dictionary) Distinguishes(a, b string) bool {
	sa, oka := d.byInstance[a]
	sb, okb := d.byInstance[b]
	if !oka || !okb {
		return false
	}
	for _, x := range sa {
		for _, y := range sb {
			if x.Key() == y.Key() {
				return false
			}
		}
	}
	return true
}

// AmbiguityClasses partitions the dictionary entries into groups that the
// test cannot always tell apart: two instances share a group when they are
// connected by a chain of shared syndromes. A singleton group means the
// instance is fully diagnosable by this test.
func (d *Dictionary) AmbiguityClasses() [][]string {
	return ambiguity(d.order, func(a, b string) bool { return d.Distinguishes(a, b) })
}

// ambiguity computes connected components of the "not distinguished"
// relation.
func ambiguity(names []string, distinguishes func(a, b string) bool) [][]string {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, n := range names {
		parent[n] = n
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if !distinguishes(names[i], names[j]) {
				parent[find(names[i])] = find(names[j])
			}
		}
	}
	groups := map[string][]string{}
	for _, n := range names {
		root := find(n)
		groups[root] = append(groups[root], n)
	}
	var out [][]string
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// String renders the dictionary for human inspection.
func (d *Dictionary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dictionary for %s\n", d.Test)
	for _, name := range d.order {
		keys := make([]string, 0, len(d.byInstance[name]))
		for _, s := range d.byInstance[name] {
			keys = append(keys, "{"+s.Key()+"}")
		}
		fmt.Fprintf(&b, "  %-28s %s\n", name, strings.Join(keys, " "))
	}
	return b.String()
}
