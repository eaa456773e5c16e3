package cluster

import (
	"strings"
	"testing"

	"probdb/internal/query"
)

func parseInsert(t *testing.T, sql string) query.Insert {
	t.Helper()
	stmt, err := query.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ins, ok := stmt.(query.Insert)
	if !ok {
		t.Fatalf("%q parsed to %T", sql, stmt)
	}
	return ins
}

func TestSplitInsertInjectsSequences(t *testing.T) {
	sql := `INSERT INTO t (id, temp) VALUES (1, GAUSSIAN(20.0, 1.0)), (2, 21.5), (3, 19.0)`
	st := parseInsert(t, sql)
	stmts, next, err := SplitInsert(sql, st, "id", 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if next != 103 {
		t.Fatalf("next seq = %d, want 103", next)
	}
	total := 0
	for shard, stmt := range stmts {
		if !strings.HasPrefix(stmt, "INSERT INTO t (id, temp, _gseq) VALUES ") {
			t.Fatalf("shard %d statement prefix wrong: %s", shard, stmt)
		}
		// Each forwarded statement must round-trip through the parser.
		re := parseInsert(t, stmt)
		total += len(re.Rows)
		for _, row := range re.Rows {
			if len(row) != 3 {
				t.Fatalf("shard %d row has %d values: %s", shard, len(row), stmt)
			}
		}
	}
	if total != 3 {
		t.Fatalf("split scattered %d rows, want 3", total)
	}
	// Sequences 100..102 must appear exactly once across the statements,
	// in the key rows they were assigned to.
	all := ""
	for _, stmt := range stmts {
		all += stmt + "\n"
	}
	for _, want := range []string{", 100)", ", 101)", ", 102)"} {
		if strings.Count(all, want) != 1 {
			t.Fatalf("sequence %q appears %d times in:\n%s", want, strings.Count(all, want), all)
		}
	}
	// The pdf literal must have been forwarded verbatim.
	if !strings.Contains(all, "GAUSSIAN(20.0, 1.0)") {
		t.Fatalf("pdf literal not preserved:\n%s", all)
	}
}

func TestSplitInsertGroupTargetsAndComments(t *testing.T) {
	sql := "INSERT INTO obs (site, (temp, hum)) VALUES -- a comment with (parens\n" +
		`('a''b', MVN((0, 0):((1, 0.5), (0.5, 1))));`
	st := parseInsert(t, sql)
	stmts, next, err := SplitInsert(sql, st, "site", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 || len(stmts) != 1 {
		t.Fatalf("next=%d stmts=%v", next, stmts)
	}
	for _, stmt := range stmts {
		if !strings.Contains(stmt, "(site, (temp, hum), _gseq)") {
			t.Fatalf("group target list mangled: %s", stmt)
		}
		if !strings.Contains(stmt, "'a''b'") {
			t.Fatalf("escaped string mangled: %s", stmt)
		}
		re := parseInsert(t, stmt)
		if len(re.Rows) != 1 || len(re.Rows[0]) != 3 {
			t.Fatalf("forwarded statement reparse: %+v", re.Rows)
		}
	}
}

func TestSplitInsertRejections(t *testing.T) {
	cases := []struct {
		sql, key, wantErr string
	}{
		{`INSERT INTO t (id, v) VALUES (1, 2)`, "other", "must assign the partition key"},
		{`INSERT INTO t (id, _gseq) VALUES (1, 2)`, "id", "reserved"},
		{`INSERT INTO t ((id, v)) VALUES (MVN((0, 0):((1, 0), (0, 1))))`, "id", "dependency group"},
		{`INSERT INTO t (id, v) VALUES (GAUSSIAN(1.0, 1.0), 2)`, "id", "plain literal"},
	}
	for _, tc := range cases {
		st := parseInsert(t, tc.sql)
		_, _, err := SplitInsert(tc.sql, st, tc.key, 2, 0)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.wantErr)
		}
	}
}

// TestInsertRowSpans: the parser records each VALUES row's source span —
// strings and nested pdf parens inside a row do not end it — and the spans
// of a statement in a script are offsets into the script.
func TestInsertRowSpans(t *testing.T) {
	sql := "INSERT INTO t (a, b) VALUES (1, 'x;(y'), (2, GAUSSIAN(0.0, 1.0)) ; "
	spans := parseInsert(t, sql).Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if got := sql[spans[0][0]:spans[0][1]]; got != "(1, 'x;(y')" {
		t.Fatalf("span 0 = %q", got)
	}
	if got := sql[spans[1][0]:spans[1][1]]; got != "(2, GAUSSIAN(0.0, 1.0))" {
		t.Fatalf("span 1 = %q", got)
	}
	script := "SELECT a FROM t; " + sql
	stmts, err := query.ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if sp := stmts[1].(query.Insert).Spans[1]; script[sp[0]:sp[1]] != "(2, GAUSSIAN(0.0, 1.0))" {
		t.Fatalf("span 1 in a script = %q", script[sp[0]:sp[1]])
	}
}
