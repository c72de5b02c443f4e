package core

import (
	"errors"
	"testing"

	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/gts"
	"marchgen/internal/memo"
)

// TestBeamOptionNormalisation pins the field-wise beam defaults: zero
// fields share the default's result memo key, a zero width keeps the
// caller's candidate cap (its own memo key, shared with the explicit
// default width), and a negative width is a usage error. The cap's effect
// on the candidates is pinned where it acts, by gts's
// TestAssembleOptionDefaults.
func TestBeamOptionNormalisation(t *testing.T) {
	models, err := fault.ParseList("SAF,TF,ADF")
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.New(0)
	run := func(beam gts.Options) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.Beam, opts.Cache = beam, cache
		res, err := Generate(models, opts)
		if err != nil {
			t.Fatalf("beam %+v: %v", beam, err)
		}
		return res
	}
	def := run(gts.DefaultOptions())
	if zero := run(gts.Options{}); !zero.FromCache || zero.Test.String() != def.Test.String() {
		t.Errorf("zero beam options: FromCache %v, test %s; want the default's cached %s", zero.FromCache, zero.Test, def.Test)
	}
	if capped := run(gts.Options{MaxCandidates: 2}); capped.FromCache {
		t.Error("width 0 with 2 candidates must not share the default's memo key")
	}
	if explicit := run(gts.Options{BeamWidth: 48, MaxCandidates: 2}); !explicit.FromCache {
		t.Error("width 0 must share the memo key of the explicit default width")
	}
	opts := DefaultOptions()
	opts.Beam.BeamWidth = -1
	if _, err := Generate(models, opts); !errors.Is(err, budget.ErrUsage) {
		t.Errorf("negative beam width: %v, want ErrUsage", err)
	}
}
