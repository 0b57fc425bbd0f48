package gremlin

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engines/neo"
)

func TestSampleDeterministicAndBounded(t *testing.T) {
	e := neo.New(neo.V19)
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.AddVertex(core.Props{"i": core.I(int64(i))})
	}
	ctx := context.Background()
	g := New(e)
	s1, err := g.V().Sample(10, 7).IDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := g.V().Sample(10, 7).IDs(ctx)
	if len(s1) != 10 || len(s2) != 10 {
		t.Fatalf("sample sizes = %d, %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	s3, _ := g.V().Sample(10, 8).IDs(ctx)
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
	// Sampling more than exists returns everything.
	all, _ := g.V().Sample(500, 1).Count(ctx)
	if all != 100 {
		t.Fatalf("oversample = %d", all)
	}
	// Distinct elements only.
	seen := map[core.ID]bool{}
	for _, id := range s1 {
		if seen[id] {
			t.Fatal("sample contains duplicates")
		}
		seen[id] = true
	}
}

func TestSamplePropagatesErrors(t *testing.T) {
	e := labelHeavySparksee()
	defer e.Close()
	_, err := New(e).V().DegreeAtLeast(core.DirBoth, 1).Sample(3, 1).Count(context.Background())
	if !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("sample err = %v, want the upstream ErrOutOfMemory", err)
	}
}
