// Package tpg builds the Test Pattern Graph of the paper's Section 4: a
// complete directed graph whose nodes are test patterns and whose edge
// weights are the Hamming distances between the observation state of the
// source pattern and the initialisation state of the target pattern
// (f.4.1) — the number of write operations needed to chain the two
// patterns. Finding a minimum-weight visit of all nodes (an open-path
// asymmetric TSP) yields a minimum-length Global Test Sequence.
//
// The package also implements the BFE-equivalence machinery of Section 5:
// disjunctive BFEs of one fault instance form an equivalence class of
// which exactly one pattern must be realised, and patterns subsumed by
// stricter ones are merged so one TPG node can certify several BFEs.
package tpg

import (
	"fmt"
	"sort"
	"strings"

	"marchgen/fault"
	"marchgen/fsm"
)

// Node is one TPG node: a test pattern plus the labels of every BFE it
// certifies.
type Node struct {
	Pattern fsm.Pattern
	Covers  []string
}

// Graph is the weighted Test Pattern Graph.
type Graph struct {
	Nodes  []Node
	Weight [][]int
}

// New builds the TPG for a pattern set: Weight[a][b] implements f.4.1,
// the number of cells that must be rewritten between observing pattern a
// and initialising pattern b.
func New(nodes []Node) *Graph {
	g := &Graph{Nodes: nodes}
	n := len(nodes)
	g.Weight = make([][]int, n)
	for a := 0; a < n; a++ {
		g.Weight[a] = make([]int, n)
		obs := nodes[a].Pattern.ObserveState()
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			g.Weight[a][b] = obs.HammingTo(nodes[b].Pattern.Init)
		}
	}
	return g
}

// StartCost returns the number of March operations needed to initialise
// the memory for pattern b as the first node of a Global Test Sequence: a
// uniform "00"/"11" initialisation collapses to a single ⇕(w0)/⇕(w1)
// element (the paper's f.4.4 observation), a single constrained cell needs
// one write, opposite values need two, and an unconstrained pattern none.
func (g *Graph) StartCost(b int) int {
	init := g.Nodes[b].Pattern.Init
	switch {
	case !init.I.Known() && !init.J.Known():
		return 0
	case init.Uniform():
		return 1
	case init.I.Known() && init.J.Known():
		return 2
	default:
		return 1
	}
}

// NodeCost returns the number of operations pattern b itself contributes
// to the sequence (its excitation plus its observing read).
func (g *Graph) NodeCost(b int) int {
	return len(g.Nodes[b].Pattern.Excite) + 1
}

// String renders the weight matrix for diagnostics.
func (g *Graph) String() string {
	var sb strings.Builder
	for a := range g.Nodes {
		fmt.Fprintf(&sb, "%-28s", g.Nodes[a].Pattern)
		for b := range g.Nodes {
			if a == b {
				sb.WriteString("  -")
			} else {
				fmt.Fprintf(&sb, " %2d", g.Weight[a][b])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Class is one BFE equivalence class: exactly one of Options must be
// realised by the final test to certify the class.
type Class struct {
	Label   string
	Options []fsm.Pattern
}

// Classes expands fault instances into equivalence classes following the
// paper's Section 5: each disjunctive instance is one class whose options
// are its BFE patterns; each BFE of a conjunctive instance is its own
// single-option class.
func Classes(instances []fault.Instance) []Class {
	var out []Class
	for _, inst := range instances {
		if inst.Conjunctive {
			for _, b := range inst.BFEs {
				out = append(out, Class{
					Label:   inst.Name + "/" + b.Name,
					Options: []fsm.Pattern{b.Pattern},
				})
			}
			continue
		}
		c := Class{Label: inst.Name}
		for _, b := range inst.BFEs {
			c.Options = append(c.Options, b.Pattern)
		}
		out = append(out, c)
	}
	return out
}

// equalOps reports whether two patterns share excitation and observation.
func equalOps(a, b fsm.Pattern) bool {
	if len(a.Excite) != len(b.Excite) || a.Observe != b.Observe {
		return false
	}
	for k := range a.Excite {
		if a.Excite[k] != b.Excite[k] {
			return false
		}
	}
	return true
}

// Subsumes reports whether realising pattern a anywhere in a test also
// realises pattern b: identical excitation and observation, and a's
// initialisation state satisfies b's (every concrete requirement of b is
// met by a).
func Subsumes(a, b fsm.Pattern) bool {
	return equalOps(a, b) && a.Init.Matches(b.Init)
}

// Selection is a concrete choice of one option per class.
type Selection []int

// Reduce turns a class selection into the minimal TPG node set: duplicate
// and subsumed patterns are merged, so one node may certify several
// classes. Classes whose chosen option is subsumed by another selected
// pattern simply attach their label to the subsuming node.
func Reduce(classes []Class, sel Selection) []Node {
	type pick struct {
		label   string
		pattern fsm.Pattern
	}
	picks := make([]pick, len(classes))
	for k, c := range classes {
		picks[k] = pick{label: c.Label, pattern: c.Options[sel[k]]}
	}
	// Keep a pattern only if no *other* kept pattern strictly subsumes it.
	// Ties (mutual subsumption, i.e. identical patterns) keep the first.
	var nodes []Node
	for k, p := range picks {
		keep := true
		for k2, q := range picks {
			if k == k2 {
				continue
			}
			if Subsumes(q.pattern, p.pattern) {
				if Subsumes(p.pattern, q.pattern) && k < k2 {
					continue // identical; the first occurrence wins
				}
				keep = false
				break
			}
		}
		if keep {
			nodes = append(nodes, Node{Pattern: p.pattern, Covers: []string{p.label}})
		}
	}
	// Attach every class to the node that certifies it.
	for _, p := range picks {
		for k := range nodes {
			if Subsumes(nodes[k].Pattern, p.pattern) {
				already := false
				for _, l := range nodes[k].Covers {
					if l == p.label {
						already = true
						break
					}
				}
				if !already {
					nodes[k].Covers = append(nodes[k].Covers, p.label)
				}
				break
			}
		}
	}
	// Node order feeds the TPG, the ATSP and the output, so nodes stay
	// sorted by their patterns' String forms, each rendered once.
	keys := make([]string, len(nodes))
	for k := range nodes {
		keys[k] = nodes[k].Pattern.String()
	}
	sort.Sort(byPattern{nodes, keys})
	return nodes
}

// byPattern sorts nodes by their patterns' String forms, held in keys and
// swapped with the nodes. sort.Sort and sort.Slice run the same pdqsort,
// so ties land where a sort.Slice on the nodes would put them.
type byPattern struct {
	nodes []Node
	keys  []string
}

func (s byPattern) Len() int           { return len(s.nodes) }
func (s byPattern) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s byPattern) Swap(a, b int) {
	s.nodes[a], s.nodes[b] = s.nodes[b], s.nodes[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}

// Selections enumerates option choices per class, but collapses the
// combinatorial space with the paper's Section 5 observation: a class with
// an option subsumed by some mandatory pattern (an option of a
// single-option class) is satisfied for free and is not enumerated. The
// remaining free classes are expanded exhaustively up to limit
// combinations; beyond the limit, only the first option of the overflow
// classes is used.
func Selections(classes []Class, limit int) []Selection {
	choices := Choices(classes)
	product := func() int {
		total := 1
		for k := range choices {
			total *= len(choices[k])
			if total > limit {
				return total // saturating: only the comparison matters
			}
		}
		return total
	}
	// Trim the widest classes until the product fits.
	for k := range choices {
		if product() <= limit {
			break
		}
		if len(choices[k]) > 1 {
			choices[k] = choices[k][:1]
		}
	}
	sels := []Selection{make(Selection, len(classes))}
	for k := range choices {
		var next []Selection
		for _, s := range sels {
			for _, o := range choices[k] {
				ns := append(Selection(nil), s...)
				ns[k] = o
				next = append(next, ns)
			}
		}
		sels = next
	}
	return sels
}

// Choices returns, per class, the option indices worth enumerating after
// the Section 5 collapse: single-option classes are pinned, and a class
// with an option subsumed by some mandatory pattern is satisfied for free
// by that option alone. The full selection space is the cartesian product
// of these lists in class order — the E = ∏|Cᵢ| figure before any
// enumeration limit trims it.
func Choices(classes []Class) [][]int {
	mandatory := []fsm.Pattern{}
	for _, c := range classes {
		if len(c.Options) == 1 {
			mandatory = append(mandatory, c.Options[0])
		}
	}
	choices := make([][]int, len(classes))
	for k, c := range classes {
		if len(c.Options) == 1 {
			choices[k] = []int{0}
			continue
		}
		subsumed := -1
		for o, opt := range c.Options {
			for _, m := range mandatory {
				if Subsumes(m, opt) {
					subsumed = o
					break
				}
			}
			if subsumed >= 0 {
				break
			}
		}
		if subsumed >= 0 {
			choices[k] = []int{subsumed}
			continue
		}
		all := make([]int, len(c.Options))
		for o := range all {
			all[o] = o
		}
		choices[k] = all
	}
	return choices
}
