package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestEngineOrderEquivalence holds order.sort to the heapsort it replaced,
// on priority vectors with many ties and on ones spanning the whole int
// range.
func TestEngineOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		priority := make([]int, n)
		for v := range priority {
			if trial%2 == 0 {
				priority[v] = rng.Intn(5) // many ties
			} else {
				priority[v] = rng.Intn(math.MaxInt) - math.MaxInt/2
			}
		}
		want := make([]int, n)
		for v := range want {
			want[v] = v
		}
		sortByKey(want, priority)
		o := order{nodes: make([]int32, n), pos: make([]int32, n)}
		o.sort(priority)
		got := make([]int, n)
		for i, v := range o.nodes {
			got[i] = int(v)
			if o.pos[v] != int32(i) {
				t.Fatalf("trial %d: pos[%d] = %d, want %d", trial, v, o.pos[v], i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, heapsort %v", trial, got, want)
		}
	}
}
