package main

import (
	"sync"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// Span layer names. Each names the boundary a wrapper in this file (or the
// Validate callback in real.go) times; the per-layer metrics aggregate them.
const (
	spanTrain     = "fl.train"
	spanValidate  = "fl.validate"
	spanAggregate = "fl.aggregate"
	spanDecode    = "fl.client.decode"
	spanEncode    = "fl.client.encode"
	spanWrite     = "transport.write"
)

// span is one timed call into a layer.
type span struct {
	layer string
	iv    interval
	// bytes is the framed size a transport write put on the wire; up marks
	// a client-to-server write.
	bytes int64
	up    bool
}

// tracer keeps spans in memory for the run and hands out timestamps on
// one monotonic timeline. The wrappers below are installed only in traced
// passes; untraced passes run the program's own objects unwrapped.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the time since the tracer's origin.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// siteState carries one site's client-side timestamps between its
// connection and executor wrappers. All three calls happen on the site's
// fl.Client goroutine, so it needs no lock.
type siteState struct {
	taskRead time.Duration // when the last task message was read
	execEnd  time.Duration // when the last ExecuteRound returned
	haveTask bool
	haveExec bool
}

// tracedExec times fl.Executor.ExecuteRound. With a siteState it also
// records the client's decode gap (task read to ExecuteRound).
type tracedExec struct {
	fl.Executor
	t  *tracer
	st *siteState
}

func (e *tracedExec) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	start := e.t.now()
	if e.st != nil && e.st.haveTask {
		e.t.add(span{layer: spanDecode, iv: interval{e.st.taskRead, start}})
		e.st.haveTask = false
	}
	u, err := e.Executor.ExecuteRound(round, global)
	end := e.t.now()
	e.t.add(span{layer: spanTrain, iv: interval{start, end}})
	if e.st != nil {
		e.st.execEnd, e.st.haveExec = end, true
	}
	return u, err
}

// tracedAgg times fl.Aggregator.Aggregate.
type tracedAgg struct {
	fl.Aggregator
	t *tracer
}

func (a tracedAgg) Aggregate(updates []*fl.ClientUpdate) (map[string]*tensor.Matrix, error) {
	start := a.t.now()
	out, err := a.Aggregator.Aggregate(updates)
	a.t.add(span{layer: spanAggregate, iv: interval{start, a.t.now()}})
	return out, err
}

// tracedConn times transport.MessageConn writes and, on the client side,
// the encode gap (ExecuteRound return to the reply write) and the task
// read that opens the decode gap.
type tracedConn struct {
	transport.MessageConn
	t  *tracer
	st *siteState // nil on the server side
}

func (c *tracedConn) Read() (*transport.Message, error) {
	m, err := c.MessageConn.Read()
	if err == nil && c.st != nil && m.Type == transport.MsgTask {
		c.st.taskRead, c.st.haveTask = c.t.now(), true
	}
	return m, err
}

func (c *tracedConn) Write(m *transport.Message) error {
	start := c.t.now()
	if c.st != nil && c.st.haveExec && m.Type == transport.MsgUpdate {
		c.t.add(span{layer: spanEncode, iv: interval{c.st.execEnd, start}})
		c.st.haveExec = false
	}
	before := c.MessageConn.BytesWritten()
	err := c.MessageConn.Write(m)
	c.t.add(span{layer: spanWrite, iv: interval{start, c.t.now()},
		bytes: c.MessageConn.BytesWritten() - before, up: c.st != nil})
	return err
}

// tracedListener wraps every accepted server-side connection.
type tracedListener struct {
	transport.MessageListener
	t *tracer
}

func (l tracedListener) AcceptConn() (transport.MessageConn, error) {
	c, err := l.MessageListener.AcceptConn()
	if err != nil {
		return nil, err
	}
	return &tracedConn{MessageConn: c, t: l.t}, nil
}
