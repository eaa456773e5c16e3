package server

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/wire"
)

// TestTopKPendingDifferentialInTxn: inside a transaction a SELECT reads the
// overlay, whose rows are no slice of a cached table, so a top-k by PROB
// takes its pending masses from dist.FloorMass per row. The rows, order,
// existence probabilities and pdf bytes equal the scalar reference's.
func TestTopKPendingDifferentialInTxn(t *testing.T) {
	e, err := OpenEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExecute(t, e, `CREATE TABLE r (rid INT, x FLOAT UNCERTAIN, y FLOAT UNCERTAIN)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO r (rid, x, y) VALUES `)
	for i := 0; i < 600; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %s, %s)", i, streamPDF(i), streamPDF(i*31+7))
	}
	mustExecute(t, e, sb.String())
	mustExecute(t, e, "BEGIN")
	mustExecute(t, e, `INSERT INTO r (rid, x, y) VALUES (600, GAUSSIAN(40, 4), UNIFORM(30, 50))`)
	fingerprint := func(r *wire.Result) string {
		var b strings.Builder
		for _, row := range r.Table.Rows {
			fmt.Fprintf(&b, "%x", math.Float64bits(row.Exists))
			for _, c := range row.Cells {
				if c.Kind == wire.CellPDF {
					fmt.Fprintf(&b, " %x", dist.Encode(c.PDF))
				} else {
					fmt.Fprintf(&b, " %v", c.Value)
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, sql := range []string{
		`SELECT rid, x FROM r WHERE x < 50 ORDER BY PROB(x) DESC LIMIT 10`,
		`SELECT rid, x, y FROM r WHERE x > 30 AND x < 60 AND y != 45 ORDER BY PROB(y) LIMIT 25`,
	} {
		var got [2]string
		for i, vec := range []bool{true, false} {
			core.SetVectorizedKernels(vec)
			res, err := e.Execute(sql)
			core.SetVectorizedKernels(true)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if !res.InTxn || res.Table == nil || len(res.Table.Rows) == 0 {
				t.Fatalf("%s: in txn %v, %v", sql, res.InTxn, res.Table)
			}
			got[i] = fingerprint(res)
		}
		if got[0] != got[1] {
			t.Fatalf("%s:\npending:\n%s\nreference:\n%s", sql, got[0], got[1])
		}
	}
	mustExecute(t, e, "ROLLBACK")
}
