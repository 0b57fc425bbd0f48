package gremlin

import (
	"context"

	"repro/internal/core"
)

// BFS performs the paper's breadth-first traversal queries Q32/Q33
// (v.as('i').both(ls...).except(vs).store(vs).loop('i') bounded at
// depth): it returns every vertex reached from start within depth hops
// over edges with the given labels (all labels when none given),
// excluding start itself, executing step-at-a-time against the engine
// as the non-optimizing adapters do.
func BFS(ctx context.Context, e core.Engine, start core.ID, depth int, labels ...string) ([]core.ID, error) {
	if !e.HasVertex(start) {
		return nil, core.ErrNotFound
	}
	r := &run{e: e, ctx: ctx}
	visited := map[core.ID]struct{}{start: {}}
	var out, next []core.ID
	visit := func(n core.ID) bool {
		if _, seen := visited[n]; !seen {
			visited[n] = struct{}{}
			out = append(out, n)
			next = append(next, n)
		}
		return true
	}
	frontier := []core.ID{start}
	for level := 0; level < depth && len(frontier) > 0; level++ {
		next = nil
		for _, v := range frontier {
			if !r.each(e.Neighbors(v, core.DirBoth, labels...), visit) {
				return nil, r.err
			}
		}
		frontier = next
	}
	return out, nil
}

// ShortestPath performs the paper's unweighted shortest-path queries
// Q34/Q35: the vertex sequence from v1 to v2 following edges in either
// direction (optionally restricted to labels), or nil when v2 is
// unreachable. The result includes both endpoints.
func ShortestPath(ctx context.Context, e core.Engine, v1, v2 core.ID, labels ...string) ([]core.ID, error) {
	if !e.HasVertex(v1) || !e.HasVertex(v2) {
		return nil, core.ErrNotFound
	}
	if v1 == v2 {
		return []core.ID{v1}, nil
	}
	r := &run{e: e, ctx: ctx}
	parent := map[core.ID]core.ID{v1: v1}
	var from core.ID
	var next []core.ID
	// visit records n's parent and stops the search when n is v2.
	visit := func(n core.ID) bool {
		if _, seen := parent[n]; seen {
			return true
		}
		parent[n] = from
		next = append(next, n)
		return n != v2
	}
	frontier := []core.ID{v1}
	for len(frontier) > 0 {
		next = nil
		for _, from = range frontier {
			if !r.each(e.Neighbors(from, core.DirBoth, labels...), visit) {
				if r.err != nil {
					return nil, r.err
				}
				return reconstruct(parent, v1, v2), nil
			}
		}
		frontier = next
	}
	return nil, nil
}

func reconstruct(parent map[core.ID]core.ID, v1, v2 core.ID) []core.ID {
	var rev []core.ID
	for v := v2; ; v = parent[v] {
		rev = append(rev, v)
		if v == v1 {
			break
		}
	}
	out := make([]core.ID, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}
