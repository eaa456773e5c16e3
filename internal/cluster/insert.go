package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"probdb/internal/query"
)

// GseqCol is the hidden column the router appends to every partitioned
// table: a router-assigned global sequence number, one per inserted row,
// issued under the router's DML lock. It gives the cluster a total
// insertion order — each shard's local storage order agrees with it, so a
// merge by (ORDER BY key, _gseq) reproduces the single-node result exactly,
// including stable-sort ties and top-k boundary ties. It is stripped from
// every result before rows reach the client.
const GseqCol = "_gseq"

// SplitInsert partitions one INSERT across the shards. Each row's partition
// key (its value for keyCol) is hashed to pick the owning shard, and the
// row's original source text — sliced out of sql by the span the parser
// recorded, since pdf literals cannot be re-rendered — is forwarded verbatim
// with ", <seq>" injected before its closing paren. st must be Parse(sql). Row i gets sequence nextSeq+i, so the
// statement's row order is preserved in the global order. It returns the
// per-shard statements (keyed by shard index) and the next unused sequence.
func SplitInsert(sql string, st query.Insert, keyCol string, shards int, nextSeq int64) (map[int]string, int64, error) {
	keyIdx := -1
	for i, tgt := range st.Targets {
		for _, c := range tgt.Cols {
			if c == GseqCol {
				return nil, 0, fmt.Errorf("cluster: column %s is reserved for the router", GseqCol)
			}
			if c == keyCol {
				if tgt.Group {
					return nil, 0, fmt.Errorf("cluster: partition key %q cannot be part of a dependency group", keyCol)
				}
				keyIdx = i
			}
		}
	}
	if keyIdx < 0 {
		return nil, 0, fmt.Errorf("cluster: INSERT INTO %s must assign the partition key %q", st.Table, keyCol)
	}
	spans := st.Spans
	if len(spans) != len(st.Rows) {
		return nil, 0, fmt.Errorf("cluster: %d VALUES row spans for %d rows", len(spans), len(st.Rows))
	}

	var prefix strings.Builder
	prefix.WriteString("INSERT INTO " + st.Table + " (")
	for i, tgt := range st.Targets {
		if i > 0 {
			prefix.WriteString(", ")
		}
		if tgt.Group {
			prefix.WriteString("(" + strings.Join(tgt.Cols, ", ") + ")")
		} else {
			prefix.WriteString(tgt.Cols[0])
		}
	}
	prefix.WriteString(", " + GseqCol + ") VALUES ")

	rows := make(map[int][]string, shards)
	for i, row := range st.Rows {
		lit, ok := row[keyIdx].(query.LitExpr)
		if !ok {
			return nil, 0, fmt.Errorf("cluster: partition key %q must be a plain literal, not a pdf", keyCol)
		}
		shard := Partition(lit.V, shards)
		text := sql[spans[i][0]:spans[i][1]]
		seq := strconv.FormatInt(nextSeq+int64(i), 10)
		rows[shard] = append(rows[shard], text[:len(text)-1]+", "+seq+")")
	}
	stmts := make(map[int]string, len(rows))
	for shard, rs := range rows {
		stmts[shard] = prefix.String() + strings.Join(rs, ", ")
	}
	return stmts, nextSeq + int64(len(st.Rows)), nil
}
