package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/codec"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// The traced run wraps the transport handed to every component: each
// Call becomes a caller-side span and each Listen handler invocation a
// handler-side span. The program is timed only at its public RPC
// boundaries, from outside. Spans are joined by the request ID the
// generator writes into invocation payloads, and cold starts by function
// name and sandbox ID decoded from the public proto messages.

// rpc classifies the methods the analysis joins on.
type rpc uint8

const (
	rpcOther rpc = iota
	rpcInvoke
	rpcInvokeSandbox
	rpcMetric
	rpcCreate
	rpcReady
	rpcUpdate
	rpcKill
)

func classify(method string) rpc {
	switch method {
	case proto.MethodInvoke:
		return rpcInvoke
	case proto.MethodInvokeSandbox:
		return rpcInvokeSandbox
	case proto.MethodScalingMetric:
		return rpcMetric
	case proto.MethodCreateSandbox, proto.MethodCreateSandboxBatch:
		return rpcCreate
	case proto.MethodSandboxReady, proto.MethodSandboxReadyBatch:
		return rpcReady
	case proto.MethodUpdateEndpoints, proto.MethodUpdateEndpointsBatch:
		return rpcUpdate
	case proto.MethodKillSandbox, proto.MethodKillSandboxBatch:
		return rpcKill
	}
	return rpcOther
}

// key is one (function, sandbox) pair a control message carries.
type key struct {
	fn string
	sb uint64
}

// span is one RPC as seen by one side. Times are ns since the
// recorder's base.
type span struct {
	start, end int64
	node       uint8 // index into recorder.nodes
	call       bool  // caller side; false = handler side
	rpc        rpc
	err        bool
	bytes      int32 // request plus response payload
	id         uint64
	hasID      bool
	dp         uint16 // ScalingMetric: reporting data plane
	entries    int32  // ScalingMetric: metric entries; Kill: sandboxes
	keys       []key
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder owns every traced transport and their span buffers.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	nodes []string
	bufs  []*traced
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// wrap returns a traced view of inner for the component called node.
func (r *recorder) wrap(inner transport.Transport, node string) transport.Transport {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &traced{inner: inner, rec: r, node: uint8(len(r.nodes))}
	r.nodes = append(r.nodes, node)
	r.bufs = append(r.bufs, t)
	return t
}

// spans returns every recorded span, ordered by start.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, t := range r.bufs {
		t.mu.Lock()
		out = append(out, t.spans...)
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

type traced struct {
	inner transport.Transport
	rec   *recorder
	node  uint8
	mu    sync.Mutex
	spans []span
}

func (t *traced) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.inner.Call(ctx, addr, method, payload)
	}
	start := t.rec.now()
	resp, err := t.inner.Call(ctx, addr, method, payload)
	sp := span{start: start, end: t.rec.now(), node: t.node, call: true, rpc: classify(method),
		err: err != nil, bytes: int32(len(payload) + len(resp))}
	decodeCall(&sp, method, payload)
	t.add(sp)
	return resp, err
}

func (t *traced) Listen(addr string, h transport.HandlerFunc) (transport.Listener, error) {
	return t.inner.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		if !t.rec.on.Load() {
			return h(method, payload)
		}
		start := t.rec.now()
		resp, err := h(method, payload)
		sp := span{start: start, end: t.rec.now(), node: t.node, rpc: classify(method),
			err: err != nil, bytes: int32(len(payload) + len(resp))}
		decodeHandle(&sp, method, payload)
		t.add(sp)
		return resp, err
	})
}

func (t *traced) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// decodeCall extracts join keys from a request on the caller side:
// invocations by request ID, creates and readiness reports by sandbox,
// teardowns by count. Each message is decoded on one side only.
func decodeCall(sp *span, method string, payload []byte) {
	switch sp.rpc {
	case rpcInvoke:
		decodeInvoke(sp, payload)
	case rpcInvokeSandbox:
		decodeInvokeSandbox(sp, payload)
	case rpcCreate:
		var creates []proto.CreateSandboxRequest
		if method == proto.MethodCreateSandboxBatch {
			if m, err := proto.UnmarshalCreateSandboxBatch(payload); err == nil {
				creates = m.Creates
			}
		} else if c, err := proto.UnmarshalCreateSandboxRequest(payload); err == nil {
			creates = []proto.CreateSandboxRequest{*c}
		}
		for _, c := range creates {
			sp.keys = append(sp.keys, key{c.Function.Name, uint64(c.SandboxID)})
		}
	case rpcReady:
		var evs []proto.SandboxEvent
		if method == proto.MethodSandboxReadyBatch {
			if m, err := proto.UnmarshalSandboxEventBatch(payload); err == nil {
				evs = m.Events
			}
		} else if e, err := proto.UnmarshalSandboxEvent(payload); err == nil {
			evs = []proto.SandboxEvent{*e}
		}
		for _, e := range evs {
			sp.keys = append(sp.keys, key{e.Function, uint64(e.SandboxID)})
		}
	case rpcKill:
		if method == proto.MethodKillSandbox {
			sp.entries = 1
		} else if m, err := proto.UnmarshalKillSandboxBatch(payload); err == nil {
			sp.entries = int32(len(m.IDs))
		}
	}
}

// decodeHandle extracts join keys on the handler side: invocations by
// request ID, metric reports by the functions with queued requests,
// endpoint updates by the sandboxes they publish.
func decodeHandle(sp *span, method string, payload []byte) {
	switch sp.rpc {
	case rpcInvoke:
		decodeInvoke(sp, payload)
	case rpcInvokeSandbox:
		decodeInvokeSandbox(sp, payload)
	case rpcMetric:
		m, err := proto.UnmarshalScalingMetricReport(payload)
		if err != nil {
			return
		}
		sp.dp = uint16(m.DataPlane)
		sp.entries = int32(len(m.Metrics))
		for _, e := range m.Metrics {
			if e.QueueDepth > 0 {
				sp.keys = append(sp.keys, key{fn: e.Function})
			}
		}
	case rpcUpdate:
		var ups []proto.EndpointUpdate
		if method == proto.MethodUpdateEndpointsBatch {
			if m, err := proto.UnmarshalEndpointUpdateBatch(payload); err == nil {
				ups = m.Updates
			}
		} else if u, err := proto.UnmarshalEndpointUpdate(payload); err == nil {
			ups = []proto.EndpointUpdate{*u}
		}
		for _, u := range ups {
			for _, ep := range u.Endpoints {
				sp.keys = append(sp.keys, key{u.Function, uint64(ep.ID)})
			}
		}
	}
}

// decodeInvoke reads the request ID from an InvokeRequest without
// copying its payload.
func decodeInvoke(sp *span, payload []byte) {
	d := codec.NewDecoder(payload)
	_ = d.String() // function name; the request ID is enough
	_ = d.Bool()   // async flag; the schedule has it
	body := d.RawBytes()
	if d.Err() != nil {
		return
	}
	if id, _, ok := decodePayload(body); ok {
		sp.id, sp.hasID = id, true
	}
}

// decodeInvokeSandbox reads the sandbox and request IDs from an
// InvokeSandboxRequest.
func decodeInvokeSandbox(sp *span, payload []byte) {
	d := codec.NewDecoder(payload)
	sb := d.U64()
	_ = d.String() // function name; the request ID is enough
	body := d.RawBytes()
	if d.Err() != nil {
		return
	}
	sp.keys = []key{{sb: sb}}
	if id, _, ok := decodePayload(body); ok {
		sp.id, sp.hasID = id, true
	}
}
