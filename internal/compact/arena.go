package compact

import (
	"context"
	"sync"
)

// scratch is the reusable per-search state: the searcher with its
// buffers (the flat domain word array, the save-epoch array, the undo
// trail, the per-depth candidate slices, the solution vector, and the
// propagation worklist with its queued flags and support bitsets), for
// the join tree the alive words and the cursors and solution vector,
// and for the root's Hall check (hall.go) the candidate numbering, the
// must-differ neighbour lists and one clique's state. One scratch serves one
// search at a time, a cutset search's leaves included; the arena
// recycles them across the memo-missed subproblems of an engine, so a
// search on a warm arena allocates no state of its own.
type scratch struct {
	searcher

	alive    []uint64
	joinInts []uint32

	hallIdx                                       []int32
	hallVars, hallOff, hallDeg, hallNbr, hallOpen []uint32
	hallUnion                                     []uint64
}

// Arena pools search scratch across searches. It is safe for
// concurrent use (the pool hands each worker its own scratch) and is
// typically owned by an engine and attached to every job's solver
// context with WithArena. The zero value is NOT usable; construct with
// NewArena. A nil *Arena is valid and simply allocates fresh scratch
// per search.
type Arena struct {
	pool sync.Pool
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	a := &Arena{}
	a.pool.New = func() any { return &scratch{} }
	return a
}

// get borrows a scratch; nil-safe (a nil arena allocates).
func (a *Arena) get() *scratch {
	if a == nil {
		return &scratch{}
	}
	return a.pool.Get().(*scratch)
}

// put returns a scratch; nil-safe (a nil arena drops it).
func (a *Arena) put(s *scratch) {
	if a == nil || s == nil {
		return
	}
	a.pool.Put(s)
}

// arenaKey is the context key under which an Arena travels, mirroring
// the hom.WithCache pattern: per-engine, never process-wide.
type arenaKey struct{}

// WithArena returns a context carrying a; Build consults it for
// reusable scratch. A nil a returns ctx unchanged.
func WithArena(ctx context.Context, a *Arena) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, arenaKey{}, a)
}

// arenaFrom extracts the arena carried by ctx, or nil.
func arenaFrom(ctx context.Context) *Arena {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(arenaKey{}).(*Arena)
	return a
}
