package gts

import (
	"sync"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/internal/simd"
)

// libraryPatterns returns every BFE pattern of every built-in fault model.
func libraryPatterns(tb testing.TB) []fsm.Pattern {
	tb.Helper()
	var out []fsm.Pattern
	for _, name := range fault.ModelNames() {
		m, err := fault.Parse(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, inst := range fault.Instances([]fault.Model{m}) {
			for _, b := range inst.BFEs {
				out = append(out, b.Pattern)
			}
		}
	}
	return out
}

// TestCompiledMachineTable checks the compile-once table on every library
// pattern: an entry's tables equal a fresh compile of the pattern's
// synthetic machine, a second lookup returns the same entry, and eight
// goroutines filling an emptied table concurrently all get one entry per
// key (run under -race).
func TestCompiledMachineTable(t *testing.T) {
	pats := libraryPatterns(t)
	for _, p := range pats {
		got := compiledMachine(p)
		want := simd.Compile(syntheticMachine(p))
		if got.Next != want.Next || got.Out != want.Out {
			t.Fatalf("%s: table entry %q differs from a fresh compile", p, got.Name)
		}
		if again := compiledMachine(p); again != got {
			t.Fatalf("%s: second lookup returned another entry", p)
		}
	}

	machineTable.Lock()
	machineTable.byKey = map[string]*simd.Compiled{}
	machineTable.Unlock()
	const goroutines = 8
	got := make([][]*simd.Compiled, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range pats {
				got[g] = append(got[g], compiledMachine(p))
			}
		}(g)
	}
	wg.Wait()
	for k, p := range pats {
		want := compiledMachine(p)
		for g := range got {
			if got[g][k] != want {
				t.Fatalf("%s: goroutine %d got another entry than the table holds", p, g)
			}
		}
	}
}
