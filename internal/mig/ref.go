package mig

import (
	"context"
	"sync"
	"sync/atomic"
)

// Ref is a shared, read-only handle on a graph: its name, fingerprint, PI
// and PO counts and MemSize, and either the graph itself or its binary
// encoding (AppendBinary), which Graph decodes on first use. The engine's
// caches hand Refs around instead of graphs, so a run that needs only a
// graph's identity — a cache key, a table's PI/PO columns — never decodes
// it, and no graph is hashed more than once. Neither a Ref nor the graph
// it returns may be mutated.
type Ref struct {
	name     string
	fp       uint64
	pis, pos int
	size     int

	m atomic.Pointer[MIG] // the graph, once built, decoded or recomputed

	mu      sync.Mutex // serializes decoding; guards payload and undecodable
	payload []byte     // the encoding until it is decoded
	// undecodable is why the payload failed to decode; it is kept so that
	// later callers go straight to the fallback.
	undecodable error
	// recompute rebuilds the graph when the payload does not decode; it
	// is dropped once the graph is known.
	recompute atomic.Pointer[func(context.Context) (*MIG, error)]
}

// NewRef hands m over to a Ref, hashing it once. The caller must not
// mutate m afterwards.
func NewRef(m *MIG) *Ref {
	r := &Ref{name: m.Name, fp: m.Fingerprint(), pis: m.NumPIs(), pos: m.NumPOs(), size: m.MemSize()}
	r.m.Store(m)
	return r
}

// BinaryRef returns a Ref on the graph payload encodes, whose fingerprint
// the caller recorded as fp. It reads only the payload's header — the
// counts and name lengths, checked against the payload's size exactly as
// ReadBinary checks them, and the model name — and retains payload for
// Graph to decode.
func BinaryRef(payload []byte, fp uint64) (*Ref, error) {
	h, err := readHeader(payload)
	if err != nil {
		return nil, err
	}
	return &Ref{
		name: string(payload[h.names : h.names+h.modelLen]),
		fp:   fp, pis: h.numPIs, pos: h.numPOs, size: h.memSize(),
		payload: payload,
	}, nil
}

// Name returns the graph's model name.
func (r *Ref) Name() string { return r.name }

// Fingerprint returns the graph's Fingerprint: computed by NewRef, or the
// value BinaryRef's caller recorded.
func (r *Ref) Fingerprint() uint64 { return r.fp }

// NumPIs returns the graph's primary-input count.
func (r *Ref) NumPIs() int { return r.pis }

// NumPOs returns the graph's primary-output count.
func (r *Ref) NumPOs() int { return r.pos }

// MemSize returns the graph's MemSize, decoded or not: the header of an
// encoded graph determines the MemSize of ReadBinary's result.
func (r *Ref) MemSize() int { return r.size }

// Decoded reports whether the graph is built, so Graph returns at once.
func (r *Ref) Decoded() bool { return r.m.Load() != nil }

// NeedsRecompute reports whether the graph is still encoded and has no
// Recompute fallback, so a caller builds a fallback only when it would be
// kept.
func (r *Ref) NeedsRecompute() bool { return !r.Decoded() && r.recompute.Load() == nil }

// Recompute gives an encoded Ref its fallback: should the payload fail to
// decode, Graph returns fn's graph instead, computed under Graph's
// context. The first fallback set is kept; it is dropped, with everything
// it holds, once the graph is known.
func (r *Ref) Recompute(fn func(context.Context) (*MIG, error)) {
	// Graph publishes the graph before it drops the fallback, so a
	// fallback set after that drop sees the graph and drops itself.
	if !r.Decoded() && r.recompute.CompareAndSwap(nil, &fn) && r.Decoded() {
		r.recompute.CompareAndSwap(&fn, nil)
	}
}

// Graph returns the graph, decoding the payload on first use (ReadBinary,
// then Validate); concurrent callers share that one decode. A payload that
// does not decode is replaced by the Recompute fallback's graph, computed
// under the caller's ctx and outside any lock: callers that race there may
// each recompute, and the first graph published is the one every caller
// gets. Without a fallback, or when it fails, Graph returns the error and
// a later call tries the fallback again.
func (r *Ref) Graph(ctx context.Context) (*MIG, error) {
	if m := r.m.Load(); m != nil {
		return m, nil
	}
	m, err := r.decodePayload()
	if err == nil {
		return m, nil
	}
	fn := r.recompute.Load()
	if fn == nil {
		// A racing caller may have published the fallback's graph, and
		// dropped the fallback, since decodePayload looked.
		if m := r.m.Load(); m != nil {
			return m, nil
		}
		return nil, err
	}
	if m, err = (*fn)(ctx); err != nil {
		return nil, err
	}
	if r.m.CompareAndSwap(nil, m) {
		r.recompute.Store(nil)
	}
	return r.m.Load(), nil
}

// decodePayload decodes the payload once, remembering a failure.
func (r *Ref) decodePayload() (*MIG, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.m.Load(); m != nil {
		return m, nil
	}
	if r.undecodable != nil {
		return nil, r.undecodable
	}
	m, err := ReadBinary(r.payload)
	if err == nil {
		err = m.Validate()
	}
	r.payload = nil
	if err != nil {
		r.undecodable = err
		return nil, err
	}
	r.m.Store(m)
	r.recompute.Store(nil)
	return m, nil
}
