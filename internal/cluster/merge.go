package cluster

import (
	"errors"
	"fmt"
	"strings"

	"probdb/internal/core"
	"probdb/internal/pipe"
	"probdb/internal/query"
	"probdb/internal/wire"
)

// mergeBatchRows is how many merged rows the router accumulates before
// flushing a RowBatch frame to the client.
const mergeBatchRows = 256

// ordMode discriminates the merge key the scatter-gather uses.
type ordMode int

const (
	ordGseq  ordMode = iota // no ORDER BY: global insertion order
	ordValue                // ORDER BY col: certain value, NULLS LAST
	ordProb                 // ORDER BY PROB(col): marginal pdf mass
)

// mrow is one shard row staged in the merge: row i of a checked, still
// encoded shard batch, with its sort key decoded up front so the heap
// comparisons stay allocation-free. Only _gseq and the ORDER BY key are
// ever decoded; the rest of the row crosses the merge as bytes.
type mrow struct {
	b    *wire.RawBatch
	i    int
	val  core.Value
	prob float64
	gseq int64
}

// shardStream is one shard's open result stream plus the bookkeeping the
// error path needs: which shard, and whether the stream is being served by
// the replica.
type shardStream struct {
	shard   int
	replica bool
	st      *wire.Stream
	done    bool
}

// streamErr tags an error with the shard stream it came from so the merge's
// error path can gate the right shard.
type streamErr struct {
	ss  *shardStream
	err error
}

func (e *streamErr) Error() string { return e.err.Error() }
func (e *streamErr) Unwrap() error { return e.err }

// errClientGone aborts the merge when the router cannot write to its own
// client anymore; the session just ends.
var errClientGone = errors.New("cluster: client connection lost")

// scatterSelect executes one SELECT across the shards and streams the
// merged result to the client. The forwarded per-shard query carries the
// whole WHERE clause, the ORDER BY, and the LIMIT (pushdown: each shard
// filters and top-k's locally), plus the hidden _gseq column and — when
// absent from the projection — the ORDER BY column, both stripped again
// before rows reach the client. The merge key is (ORDER BY key, _gseq):
// each shard's stream is sorted under that composite (the engine's sort is
// stable and scan order is _gseq order), and the composite resolves
// cross-shard ties exactly the way a single node's stable sort resolves
// them — by insertion order.
func (s *session) scatterSelect(sel query.SelectStmt) bool {
	if sel.Agg != "" {
		return s.fail(fmt.Errorf("cluster: cross-shard aggregates are not supported through the router; connect to a shard"))
	}
	if len(sel.From) != 1 {
		return s.fail(fmt.Errorf("cluster: joins are not supported through the router"))
	}
	s.r.dml.Lock()
	entry := s.r.man.Lookup(sel.From[0].Name)
	s.r.dml.Unlock()
	if entry == nil {
		return s.fail(fmt.Errorf("cluster: no table %q", sel.From[0].Name))
	}

	userCols := sel.Cols
	if sel.Star {
		userCols = entry.Cols
	}

	// Rewrite the query the shards see: explicit projection with the
	// ORDER BY key (if hidden) and _gseq appended.
	fwd := sel
	fwd.Star = false
	fwd.Cols = append([]string{}, userCols...)
	mode := ordGseq
	keyIdx := -1
	if sel.OrderCol != "" {
		mode = ordValue
		if sel.OrderProb {
			mode = ordProb
		}
		for i, c := range userCols {
			if c == sel.OrderCol {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			keyIdx = len(fwd.Cols)
			fwd.Cols = append(fwd.Cols, sel.OrderCol)
		}
	}
	gseqIdx := len(fwd.Cols)
	fwd.Cols = append(fwd.Cols, GseqCol)
	rendered, err := query.Render(fwd)
	if err != nil {
		return s.fail(err)
	}

	targets := s.pruneTargets(entry, sel.Where)
	streams := make([]*shardStream, 0, len(targets))
	defer func() {
		// Any stream not read to completion leaves its connection
		// desynchronized; discard those without gating the shard.
		for _, ss := range streams {
			if ss.done {
				continue
			}
			if ss.replica {
				s.dropReplica(ss.shard)
			} else {
				s.discardLeader(ss.shard)
			}
		}
	}()
	// Open the shard streams concurrently: QueryStream blocks until the
	// shard's first frame, and for sort/top-k queries that is the whole
	// per-shard execution — a sequential scatter would serialize the very
	// work sharding exists to spread out.
	opened := make([]*shardStream, len(targets))
	errs := make([]error, len(targets))
	each(len(targets), func(k int) { opened[k], errs[k] = s.openStream(targets[k], rendered) })
	for _, ss := range opened {
		if ss != nil {
			streams = append(streams, ss)
		}
	}
	openErr := firstErr(errs)
	if openErr != nil {
		return s.fail(openErr) // the deferred sweep discards the opened streams
	}

	// All shards run the same rewritten query, so any header describes the
	// merged stream; the appended key/_gseq columns are cut off. Each
	// shard's header width is checked here once: its Stream holds every
	// batch with rows to that width.
	for _, ss := range streams {
		if n := len(ss.st.Columns()); n != len(fwd.Cols) {
			return s.fail(fmt.Errorf("cluster: shard %d returned %d columns, expected %d", ss.shard, n, len(fwd.Cols)))
		}
	}
	header := streams[0].st.Columns()[:len(userCols)]
	name := streams[0].st.Name()
	if sel.Star {
		// SELECT * runs with no projection on a single node, but the
		// shards execute an explicit column list (to append _gseq), which
		// wraps the result name in one extra π(...). Peel it so the header
		// matches the single-node byte for byte.
		if inner, ok := strings.CutPrefix(name, "π("); ok {
			name = strings.TrimSuffix(inner, ")")
		}
	}

	cursors := make([]pipe.Cursor[mrow], len(streams))
	for i, ss := range streams {
		cursors[i] = s.rowCursor(ss, mode, keyIdx, gseqIdx)
	}
	less := makeLess(mode, sel.OrderDesc)
	limit := -1
	if sel.Limit != nil {
		limit = *sel.Limit
	}

	var (
		rows    []byte // the encoded rows of the batch being filled
		nrows   int
		nextSeq uint64
		frame   []byte // reused from batch to batch
	)
	// flush writes the merged rows as one RowBatch frame. Full batches go
	// out at once; the tail stays buffered and leaves with the Result or
	// Error in one write.
	flush := func(write func(wire.FrameType, []byte) bool) error {
		var cols []wire.Column
		if nextSeq == 0 {
			cols = header
		}
		frame = wire.AppendRawBatch(frame[:0], nextSeq, name, cols, len(header), nrows, rows)
		if !write(wire.FrameRowBatch, frame) {
			return errClientGone
		}
		nextSeq++
		rows, nrows = rows[:0], 0
		return nil
	}
	// emit forwards a row's bytes up to the last user column: the hidden
	// key and _gseq cells the rewrite appended are cut off undecoded.
	emit := func(m mrow) error {
		rows = append(rows, m.b.Row(m.i, len(userCols))...)
		if nrows++; nrows >= mergeBatchRows {
			return flush(s.c.WriteFrame)
		}
		return nil
	}

	if err := pipe.MergeSorted(cursors, less, limit, emit); err != nil {
		if errors.Is(err, errClientGone) {
			return false
		}
		var se *streamErr
		if errors.As(err, &se) {
			se.ss.done = true // its connection is handled here, not by the deferred sweep
			return s.failStream(se)
		}
		return s.fail(err)
	}
	// Flush the tail — and always batch 0, so even an empty result carries
	// its header, exactly like a single server's stream.
	if nrows > 0 || nextSeq == 0 {
		if err := flush(s.c.BufferFrame); err != nil {
			return false
		}
	}

	// Drain the leftovers a LIMIT cut off (bounded: the pushdown already
	// capped each shard at the limit) and sum the shards' stats.
	res := &wire.Result{}
	for _, ss := range streams {
		for {
			batch, err := ss.st.NextRaw()
			if err != nil {
				se := &streamErr{ss: ss, err: err}
				ss.done = true
				return s.failStream(se)
			}
			if batch == nil {
				break
			}
		}
		ss.done = true
		sres, err := ss.st.Result()
		if err != nil {
			return s.fail(err)
		}
		addStats(&res.Stats, sres.Stats)
	}
	// Stats stay cluster-wide sums: Rows is what the shards produced, not
	// what the merge delivered (they differ when a LIMIT cut the tail) —
	// it is how a client observes pushdown doing its job.
	return s.result(res)
}

// failStream reports a mid-stream shard failure. A ServerError passes
// through unchanged (the shard's engine refused the query — same answer a
// single node would give); a transport failure gates the shard and becomes
// a retryable ErrShardUnavailable, because the client discards partial rows
// on an error frame and re-running a read is safe.
func (s *session) failStream(se *streamErr) bool {
	var serr *wire.ServerError
	if errors.As(se.err, &serr) {
		return s.fail(serr)
	}
	addr := s.r.shards[se.ss.shard].spec.Addr
	if se.ss.replica {
		addr = s.r.shards[se.ss.shard].spec.Replica
		s.dropReplica(se.ss.shard)
	} else {
		s.dropLeader(se.ss.shard)
	}
	return s.fail(&errShardUnavailable{
		shard: se.ss.shard,
		addr:  addr,
		cause: fmt.Errorf("shard died mid-stream (partial rows discarded): %w", se.err),
	})
}

// openStream starts the forwarded query on one shard, degrading from
// leader to replica when the leader is gated or unreachable. Engine errors
// (ServerError) do not fail over — the replica would refuse identically.
func (s *session) openStream(i int, sql string) (*shardStream, error) {
	var lastErr error
	if ok, _ := s.r.shards[i].available(); ok {
		c, err := s.leaderClient(i)
		if err == nil {
			st, err := c.QueryStream(sql)
			if err == nil {
				return &shardStream{shard: i, st: st}, nil
			}
			var se *wire.ServerError
			if errors.As(err, &se) {
				return nil, se
			}
			s.dropLeader(i)
		}
		lastErr = err
	}
	c, err := s.replicaClient(i)
	if err != nil {
		if lastErr != nil {
			var su *errShardUnavailable
			if errors.As(err, &su) && su.cause != nil {
				su.cause = fmt.Errorf("%v (leader: %v)", su.cause, lastErr)
			}
		}
		return nil, err
	}
	st, err := c.QueryStream(sql)
	if err != nil {
		var se *wire.ServerError
		if errors.As(err, &se) {
			return nil, se
		}
		s.dropReplica(i)
		return nil, &errShardUnavailable{shard: i, addr: s.r.shards[i].spec.Replica, cause: err}
	}
	return &shardStream{shard: i, replica: true, st: st}, nil
}

// rowCursor adapts one shard stream into a merge cursor over its rows,
// checked and left encoded, decoding each row's sort key as it is pulled.
func (s *session) rowCursor(ss *shardStream, mode ordMode, keyIdx, gseqIdx int) pipe.Cursor[mrow] {
	var (
		b    *wire.RawBatch
		next int
	)
	return func() (mrow, bool, error) {
		if b == nil || next == b.Len() {
			var err error
			if b, err = ss.st.NextRaw(); err != nil {
				return mrow{}, false, &streamErr{ss: ss, err: err}
			}
			if b == nil {
				ss.done = true
				return mrow{}, false, nil
			}
			next = 0
		}
		m, err := makeMRow(ss.shard, b, next, mode, keyIdx, gseqIdx)
		next++
		return m, err == nil, err
	}
}

// makeMRow stages row i of b, decoding its _gseq cell and, for an ORDER BY,
// its key cell.
func makeMRow(shard int, b *wire.RawBatch, i int, mode ordMode, keyIdx, gseqIdx int) (mrow, error) {
	m := mrow{b: b, i: i}
	g, err := b.Cell(i, gseqIdx)
	if err != nil {
		return m, err
	}
	if g.Kind != wire.CellValue || g.Value.Kind != core.IntValue {
		return m, fmt.Errorf("cluster: shard %d returned a malformed %s cell", shard, GseqCol)
	}
	m.gseq = g.Value.I
	if mode == ordGseq {
		return m, nil
	}
	c, err := b.Cell(i, keyIdx)
	if err != nil {
		return m, err
	}
	switch mode {
	case ordValue:
		// The engine rejects ORDER BY over uncertain columns, so the key
		// cell is a plain value; an absent value sorts as NULL, exactly as
		// the single-node comparator sees it.
		m.val = core.Null
		if c.Kind == wire.CellValue {
			m.val = c.Value
		}
	case ordProb:
		// Key = the tuple's probability for the column: an uncertain
		// cell's marginal mass; certain cells contribute 1, like the
		// engine's Prob.
		m.prob = 1
		if c.Kind == wire.CellPDF && c.PDF != nil {
			m.prob = c.PDF.Mass()
		}
	}
	return m, nil
}

// makeLess builds the composite merge comparator: the ORDER BY key first
// (NULLS LAST in both directions, incomparable values tying — mirroring the
// engine's comparator), then _gseq ascending. The _gseq tie-break is never
// flipped by DESC: a single node's stable sort keeps equal keys in
// insertion order regardless of direction.
func makeLess(mode ordMode, desc bool) func(a, b mrow) bool {
	return func(a, b mrow) bool {
		c := 0
		switch mode {
		case ordValue:
			an, bn := a.val.IsNull(), b.val.IsNull()
			switch {
			case an && bn:
			case an:
				c = 1
			case bn:
				c = -1
			default:
				if cc, ok := a.val.Compare(b.val); ok {
					c = cc
					if desc {
						c = -c
					}
				}
			}
		case ordProb:
			switch {
			case a.prob < b.prob:
				c = -1
			case a.prob > b.prob:
				c = 1
			}
			if desc {
				c = -c
			}
		}
		if c != 0 {
			return c < 0
		}
		return a.gseq < b.gseq
	}
}

// discardLeader closes a session's cached leader connection without gating
// the shard — for healthy streams abandoned when a sibling shard failed.
func (s *session) discardLeader(i int) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if c := s.leader[i]; c != nil {
		c.Close() //nolint:errcheck
		delete(s.leader, i)
	}
}
