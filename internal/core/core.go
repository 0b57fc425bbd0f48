package core

import "errors"

// ID identifies a vertex or an edge inside a specific engine. IDs are
// engine-local: the same dataset object usually has different IDs in
// different engines (e.g. Neo-style engines use record offsets while the
// document store uses sequence numbers). The harness keeps the mapping
// from dataset object indexes to engine IDs (see LoadResult).
type ID int64

// NoID is the invalid identifier.
const NoID ID = -1

// Direction selects which incident edges of a vertex to follow.
type Direction uint8

// Traversal directions.
const (
	DirOut Direction = iota
	DirIn
	DirBoth
)

// String returns "out", "in" or "both".
func (d Direction) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirIn:
		return "in"
	default:
		return "both"
	}
}

// Sentinel errors shared across engines and the traversal layer.
var (
	// ErrNotFound reports that the referenced vertex, edge or property
	// does not exist (possibly because it was deleted).
	ErrNotFound = errors.New("core: object not found")
	// ErrClosed reports an operation on a closed engine.
	ErrClosed = errors.New("core: engine is closed")
	// ErrOutOfMemory reports that an operation exceeded the engine's
	// configured memory budget. It reproduces the paper's finding that
	// Sparksee exhausts RAM and swap on the degree-filter queries.
	ErrOutOfMemory = errors.New("core: memory budget exhausted")
	// ErrTimeout reports that a query exceeded the harness deadline.
	// It is the error the paper's 2-hour limit turns into.
	ErrTimeout = errors.New("core: query timed out")
	// ErrUnsupported reports a capability an engine does not provide
	// (e.g. BlazeGraph has no user-controlled attribute indexes).
	ErrUnsupported = errors.New("core: operation not supported by engine")
)

// Iter is a pull iterator: each call produces the next element until ok
// is false. All engine scan and traversal surfaces return Iter so the
// Gremlin layer can stream without materializing (unless the engine's own
// architecture forces materialization, as for the document store).
type Iter[T any] func() (item T, ok bool)

// EmptyIter returns an iterator that yields nothing.
func EmptyIter[T any]() Iter[T] {
	return func() (T, bool) { var zero T; return zero, false }
}

// SliceIter iterates over a slice snapshot.
func SliceIter[T any](s []T) Iter[T] {
	i := 0
	return func() (T, bool) {
		if i >= len(s) {
			var zero T
			return zero, false
		}
		v := s[i]
		i++
		return v, true
	}
}

// Collect drains the iterator into a slice.
func Collect[T any](it Iter[T]) []T {
	var out []T
	for v, ok := it(); ok; v, ok = it() {
		out = append(out, v)
	}
	return out
}

// Drain consumes the iterator and returns the number of elements seen.
func Drain[T any](it Iter[T]) int {
	n := 0
	for _, ok := it(); ok; _, ok = it() {
		n++
	}
	return n
}

// FilterIter yields only the elements for which keep returns true.
func FilterIter[T any](it Iter[T], keep func(T) bool) Iter[T] {
	return func() (T, bool) {
		for {
			v, ok := it()
			if !ok {
				var zero T
				return zero, false
			}
			if keep(v) {
				return v, true
			}
		}
	}
}
