package simd

import (
	"math/rand"
	"testing"

	"marchgen/fault"
	"marchgen/fsm"
	"marchgen/march"
)

// libraryBlocks compiles the instances of a few fault lists into blocks.
func libraryBlocks(t *testing.T) ([]*Block, [][]*Compiled) {
	t.Helper()
	models, err := fault.ParseList("SAF,TF,ADF,CFin,CFid,CFst,DRF,RDF,WDF")
	if err != nil {
		t.Fatal(err)
	}
	insts := fault.Instances(models)
	var blocks []*Block
	var machines [][]*Compiled
	for lo := 0; lo < len(insts); lo += BlockInstances {
		hi := min(lo+BlockInstances, len(insts))
		ms := make([]*Compiled, 0, hi-lo)
		for _, inst := range insts[lo:hi] {
			ms = append(ms, Compile(inst.Machine))
		}
		b, err := NewBlock(ms)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		machines = append(machines, ms)
	}
	return blocks, machines
}

// randomTrace draws n index-encoded inputs, starting with writes so
// that most reads have a known fault-free value.
func randomTrace(rng *rand.Rand, n int) []uint8 {
	in := make([]uint8, n)
	for k := range in {
		if k < 2 {
			in[k] = uint8(rng.Intn(4))
			continue
		}
		in[k] = uint8(rng.Intn(NumInputs))
	}
	return in
}

// TestStepMatchesRunTrace steps random traces input by input and checks
// every mismatch mask against RunTrace and against a lane-by-lane walk
// of the compiled tables.
func TestStepMatchesRunTrace(t *testing.T) {
	blocks, machines := libraryBlocks(t)
	rng := rand.New(rand.NewSource(1))
	inits := fsm.ConcreteStates()
	for round := 0; round < 200; round++ {
		inputs := randomTrace(rng, 1+rng.Intn(40))
		expect := ExpectedOutputs(inputs)
		for bi, b := range blocks {
			want := make([]uint64, len(inputs))
			b.RunTrace(inputs, expect, want)
			planes := b.InitPlanes()
			for k, in := range inputs {
				if got := b.Step(&planes, in, expect[k]); got != want[k] {
					t.Fatalf("round %d block %d position %d: Step %#x, RunTrace %#x", round, bi, k, got, want[k])
				}
			}
			for i, m := range machines[bi] {
				for v, init := range inits {
					lane := uint(LanesPerInstance*i + v)
					s := uint8(StateIndex(init))
					for k, in := range inputs {
						out, e := m.Out[s][in], expect[k]
						mism := e.Known() && out.Known() && out != e
						if got := want[k]>>lane&1 == 1; got != mism {
							t.Fatalf("round %d %s init %s position %d: lane mismatch %v, tables say %v", round, m.Name, init, k, got, mism)
						}
						s = m.Next[s][in]
					}
				}
			}
		}
	}
}

func TestIndexRoundTrips(t *testing.T) {
	for idx := 0; idx < NumStates; idx++ {
		if got := StateIndex(StateAt(idx)); got != idx {
			t.Errorf("StateIndex(StateAt(%d)) = %d", idx, got)
		}
	}
	for idx := 0; idx < NumInputs; idx++ {
		if got := InputIndex(inputAt(idx)); got != idx {
			t.Errorf("InputIndex(inputAt(%d)) = %d", idx, got)
		}
	}
	alphabet := fsm.Alphabet()
	if len(alphabet) != NumInputs {
		t.Fatalf("alphabet has %d symbols, want %d", len(alphabet), NumInputs)
	}
	seen := map[int]bool{}
	for _, in := range alphabet {
		idx := InputIndex(in)
		if seen[idx] || inputAt(idx) != in {
			t.Errorf("input %s: index %d duplicated or not inverted", in, idx)
		}
		seen[idx] = true
	}
	bits := []march.Bit{march.Zero, march.One, march.X}
	for _, i := range bits {
		for _, j := range bits {
			s := fsm.S(i, j)
			if StateAt(StateIndex(s)) != s {
				t.Errorf("state %s does not round-trip", s)
			}
		}
	}
}

func TestNibbleAll(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{0xF, 0x1},
		{0x7, 0},
		{0xE, 0},
		{0xF0, 0x10},
		{0xF0F0, 0x1010},
		{^uint64(0), nibbleLSB},
		{0x8421_8421_8421_8421, 0},
		{0xF000_0000_0000_000F, 0x1000_0000_0000_0001},
	}
	for _, c := range cases {
		if got := NibbleAll(c.in); got != c.want {
			t.Errorf("NibbleAll(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestInitPlanes(t *testing.T) {
	blocks, machines := libraryBlocks(t)
	for bi, b := range blocks {
		planes := b.InitPlanes()
		var all uint64
		for s, w := range planes {
			if all&w != 0 {
				t.Fatalf("block %d: state %d shares lanes with another plane", bi, s)
			}
			all |= w
		}
		if all != b.Lanes() || b.Instances() != len(machines[bi]) {
			t.Errorf("block %d: planes cover %#x, lanes %#x", bi, all, b.Lanes())
		}
		for v, init := range fsm.ConcreteStates() {
			if planes[StateIndex(init)]&(1<<uint(v)) == 0 {
				t.Errorf("block %d: lane %d does not start in %s", bi, v, init)
			}
		}
	}
}
