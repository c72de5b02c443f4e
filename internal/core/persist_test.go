package core

import (
	"reflect"
	"testing"
)

// TestCodecRoundTrip proves the persisted kinds survive encode/decode
// bit-exactly and that everything else is refused (stays memory-only).
func TestCodecRoundTrip(t *testing.T) {
	c := Codec()

	frag := &tourFragment{paths: [][]int{{0, 2, 1}, {1, 2, 0}}, cost: 17}
	data, ok := c.Encode(frag)
	if !ok {
		t.Fatal("tour fragment not persistable")
	}
	back, ok := c.Decode(data)
	if !ok {
		t.Fatal("tour fragment did not decode")
	}
	got := back.(*tourFragment)
	if !reflect.DeepEqual(got.paths, frag.paths) || got.cost != frag.cost {
		t.Fatalf("round trip lost data: %+v vs %+v", got, frag)
	}

	for _, v := range []bool{true, false} {
		data, ok := c.Encode(v)
		if !ok {
			t.Fatalf("verdict %v not persistable", v)
		}
		back, ok := c.Decode(data)
		if !ok || back.(bool) != v {
			t.Fatalf("verdict %v round trip: %v, %v", v, back, ok)
		}
	}

	// Non-persistable kinds: refused on encode, so they never reach disk.
	for _, v := range []any{"string", 42, &cachedResult{}, nil} {
		if _, ok := c.Encode(v); ok {
			t.Fatalf("%T must not be persistable", v)
		}
	}

	// Garbage and wrong versions decode to a miss, never a panic.
	for _, raw := range []string{"", "{", `{"v":99,"kind":"tour","data":{}}`, `{"v":1,"kind":"?","data":1}`, `{"v":1,"kind":"tour","data":{"paths":[],"cost":0}}`,
		// A cost fragment written by an older build: the kind is retired.
		`{"v":1,"kind":"tpgcost","data":{"cost":3,"path":[0,1]}}`} {
		if _, ok := c.Decode([]byte(raw)); ok {
			t.Fatalf("decoded garbage %q", raw)
		}
	}
}
