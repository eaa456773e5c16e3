package query

import (
	"math"
	"strings"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
)

func mustExec(t testing.TB, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

func sensorDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, "CREATE TABLE readings (rid INT, value FLOAT UNCERTAIN)")
	mustExec(t, db, `INSERT INTO readings (rid, value) VALUES
		(1, GAUSSIAN(20, 5)),
		(2, GAUSSIAN(25, 4)),
		(3, GAUSSIAN(13, 1))`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := sensorDB(t)
	r := mustExec(t, db, "SELECT rid FROM readings WHERE rid = 1")
	if r.Table.Len() != 1 {
		t.Fatalf("rows = %d", r.Table.Len())
	}
	r = mustExec(t, db, "SELECT * FROM readings")
	if r.Table.Len() != 3 {
		t.Fatalf("rows = %d", r.Table.Len())
	}
	if !strings.Contains(r.Table.Render(), "Gaus(20,5)") {
		t.Errorf("render:\n%s", r.Table.Render())
	}
}

// TestInsertRejectsZeroMass: INSERT refuses a pdf with no mass — a row that
// exists with probability 0 — naming the column, and stores nothing for it.
func TestInsertRejectsZeroMass(t *testing.T) {
	db := sensorDB(t)
	_, err := db.Exec("INSERT INTO readings (rid, value) VALUES (4, DISCRETE(14:0))")
	if err == nil || !strings.Contains(err.Error(), "[value]") {
		t.Fatalf("err = %v, want a zero-mass error naming [value]", err)
	}
	if n := mustExec(t, db, "SELECT * FROM readings").Table.Len(); n != 3 {
		t.Errorf("after the refused row: %d rows, want 3", n)
	}
	mustExec(t, db, "INSERT INTO readings (rid, value) VALUES (4, DISCRETE(14:0.5))")
}

// TestMultiRowInsertIsAtomic: a multi-row INSERT whose later row is refused
// — by the statement's target checks or by the table's row checks — stores
// none of its rows, in the table or in its index.
func TestMultiRowInsertIsAtomic(t *testing.T) {
	for _, bad := range []string{
		"(2, 5)",              // a literal where a pdf belongs
		"(2, DISCRETE(14:0))", // a pdf with no mass
	} {
		db := Open()
		mustExec(t, db, "CREATE TABLE t (k INT, v FLOAT UNCERTAIN)")
		mustExec(t, db, "CREATE INDEX t_k ON t (k)")
		sql := "INSERT INTO t (k, v) VALUES (1, GAUSSIAN(0, 1)), " + bad
		if _, err := db.Exec(sql); err == nil {
			t.Fatalf("%s: no error", sql)
		}
		if n := mustExec(t, db, "SELECT * FROM t").Table.Len(); n != 0 {
			t.Errorf("%s: table holds %d rows, want 0", sql, n)
		}
		if n := mustExec(t, db, "SELECT k FROM t WHERE k = 1").Table.Len(); n != 0 {
			t.Errorf("%s: the k index finds %d rows, want 0", sql, n)
		}
		tb, _ := db.Table("t")
		if err := db.indexes["t"].Check(tb); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
		mustExec(t, db, "INSERT INTO t (k, v) VALUES (1, GAUSSIAN(0, 1)), (2, GAUSSIAN(5, 1))")
		if n := mustExec(t, db, "SELECT k FROM t WHERE k = 1").Table.Len(); n != 1 {
			t.Errorf("%s: after a good INSERT the k index finds %d rows, want 1", sql, n)
		}
	}
}

func TestSelectFloorsUncertain(t *testing.T) {
	db := sensorDB(t)
	r := mustExec(t, db, "SELECT rid, value FROM readings WHERE value < 25")
	if r.Table.Len() != 3 {
		t.Fatalf("rows = %d (gaussian tails survive)", r.Table.Len())
	}
	tup := r.Table.Tuples()[1] // rid 2: Gaus(25,4) floored at 25
	d, err := r.Table.DistOf(tup, "value")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mass()-0.5) > 1e-12 {
		t.Errorf("mass = %v, want 0.5", d.Mass())
	}
}

func TestProbThreshold(t *testing.T) {
	db := sensorDB(t)
	// After flooring at value < 20, sensor 2's survival probability is tiny.
	r := mustExec(t, db, "SELECT rid FROM readings WHERE value < 20 AND PROB(value) > 0.4")
	if r.Table.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Table.Len())
	}
}

func TestProbRangeThreshold(t *testing.T) {
	db := sensorDB(t)
	r := mustExec(t, db, "SELECT rid FROM readings WHERE PROB(value IN [18, 22]) >= 0.5")
	if r.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1", r.Table.Len())
	}
	v, _ := r.Table.Value(r.Table.Tuples()[0], "rid")
	if v.I != 1 {
		t.Errorf("kept rid %v", v.Render())
	}
}

func TestJointDependencySets(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE obj (id INT, x FLOAT UNCERTAIN, y FLOAT UNCERTAIN, DEPENDENT(x, y))`)
	mustExec(t, db, `INSERT INTO obj (id, (x, y)) VALUES
		(1, DISCRETE((4,5):0.9, (2,3):0.1))`)
	r := mustExec(t, db, "SELECT * FROM obj WHERE x > 3")
	if r.Table.Len() != 1 {
		t.Fatalf("rows = %d", r.Table.Len())
	}
	d, err := r.Table.DistOf(r.Table.Tuples()[0], "y")
	if err != nil {
		t.Fatal(err)
	}
	// x > 3 keeps only (4,5): the y marginal is 5 with mass 0.9.
	if got := d.At([]float64{5}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("P(y=5) = %v, want 0.9", got)
	}
	// DESCRIBE shows the dependency set.
	msg := mustExec(t, db, "DESCRIBE obj").Message
	if !strings.Contains(msg, "x y") && !strings.Contains(msg, "[x y]") {
		t.Errorf("describe missing Δ: %s", msg)
	}
}

func TestCrossAttributePredicate(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT UNCERTAIN, b INT UNCERTAIN)")
	mustExec(t, db, `INSERT INTO t ((a), (b)) VALUES
		(DISCRETE(0:0.1, 1:0.9), DISCRETE(1:0.6, 2:0.4)),
		(DISCRETE(7:1.0), DISCRETE(3:1.0))`)
	r := mustExec(t, db, "SELECT a, b FROM t WHERE a < b")
	if r.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (the paper's Table II example)", r.Table.Len())
	}
	if got := r.Table.ExistenceProb(r.Table.Tuples()[0]); math.Abs(got-0.46) > 1e-12 {
		t.Errorf("existence = %v, want 0.46", got)
	}
}

func TestMultiTableJoin(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE s (sid INT, x FLOAT UNCERTAIN)")
	mustExec(t, db, "CREATE TABLE r (rid INT, name TEXT)")
	mustExec(t, db, "INSERT INTO s (sid, x) VALUES (1, GAUSSIAN(10, 1)), (2, GAUSSIAN(20, 1))")
	mustExec(t, db, "INSERT INTO r (rid, name) VALUES (1, 'lab'), (2, 'office')")
	res := mustExec(t, db, "SELECT s.sid, r.name FROM s, r WHERE s.sid = r.rid")
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	for _, tup := range res.Table.Tuples() {
		sid, _ := res.Table.Value(tup, "s.sid")
		name, _ := res.Table.Value(tup, "r.name")
		want := map[int64]string{1: "lab", 2: "office"}
		if name.S != want[sid.I] {
			t.Errorf("sid %d paired with %q", sid.I, name.S)
		}
	}
}

func TestJoinOnUncertain(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (x FLOAT UNCERTAIN)")
	mustExec(t, db, "CREATE TABLE b (y FLOAT UNCERTAIN)")
	mustExec(t, db, "INSERT INTO a (x) VALUES (GAUSSIAN(0, 1))")
	mustExec(t, db, "INSERT INTO b (y) VALUES (GAUSSIAN(1, 1))")
	r := mustExec(t, db, "SELECT * FROM a, b WHERE a.x < b.y")
	if r.Table.Len() != 1 {
		t.Fatal("join should keep the pair")
	}
	got := r.Table.ExistenceProb(r.Table.Tuples()[0])
	if math.Abs(got-0.7602) > 0.02 {
		t.Errorf("P[X<Y] = %v", got)
	}
}

func TestDeleteStatement(t *testing.T) {
	db := sensorDB(t)
	r := mustExec(t, db, "DELETE FROM readings WHERE rid = 2")
	if r.Affected != 1 {
		t.Fatalf("deleted %d", r.Affected)
	}
	if mustExec(t, db, "SELECT * FROM readings").Table.Len() != 2 {
		t.Error("wrong remaining count")
	}
	// Probability-threshold deletes.
	r = mustExec(t, db, "DELETE FROM readings WHERE PROB(value IN [12, 14]) > 0.5")
	if r.Affected != 1 {
		t.Fatalf("prob delete removed %d", r.Affected)
	}
	if _, err := db.Exec("DELETE FROM readings WHERE value < 10"); err == nil {
		t.Error("uncertain comparison in DELETE should fail")
	}
	// DELETE compares with SELECT's compiled atoms: a number is not ordered
	// against a string (no row qualifies), and a literal-only conjunct is
	// still a constant.
	if r = mustExec(t, db, "DELETE FROM readings WHERE rid < 'x'"); r.Affected != 0 {
		t.Fatalf("incomparable kinds deleted %d", r.Affected)
	}
	if r = mustExec(t, db, "DELETE FROM readings WHERE 1 = 1"); r.Affected != 1 {
		t.Fatalf("constant-true delete removed %d", r.Affected)
	}
}

func TestDropShowDescribe(t *testing.T) {
	db := sensorDB(t)
	mustExec(t, db, "CREATE TABLE other (x INT)")
	if got := mustExec(t, db, "SHOW TABLES").Message; got != "other\nreadings" {
		t.Errorf("show tables = %q", got)
	}
	mustExec(t, db, "DROP TABLE other")
	if got := mustExec(t, db, "SHOW TABLES").Message; got != "readings" {
		t.Errorf("after drop = %q", got)
	}
	if _, err := db.Exec("DROP TABLE nope"); err == nil {
		t.Error("drop unknown should fail")
	}
	if _, err := db.Exec("DESCRIBE nope"); err == nil {
		t.Error("describe unknown should fail")
	}
}

func TestAllDistributionLiterals(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE d (x FLOAT UNCERTAIN)")
	literals := []string{
		"GAUSSIAN(0, 1)", "UNIFORM(0, 10)", "EXPONENTIAL(0.5)", "TRIANGULAR(0, 1, 2)",
		"BERNOULLI(0.3)", "BINOMIAL(5, 0.5)", "POISSON(4)", "GEOMETRIC(0.25)",
		"DISCRETE(1:0.5, 2:0.5)", "HISTOGRAM((0, 5, 10):(0.4, 0.6))",
	}
	for _, lit := range literals {
		if _, err := db.Exec("INSERT INTO d (x) VALUES (" + lit + ")"); err != nil {
			t.Errorf("literal %s: %v", lit, err)
		}
	}
	if got := mustExec(t, db, "SELECT * FROM d").Table.Len(); got != len(literals) {
		t.Errorf("rows = %d", got)
	}
}

func TestExecScript(t *testing.T) {
	db := Open()
	results, err := db.ExecScript(`
		-- sensor demo
		CREATE TABLE s (id INT, x FLOAT UNCERTAIN);
		INSERT INTO s (id, x) VALUES (1, GAUSSIAN(20, 5));
		SELECT * FROM s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[2].Table.Len() != 1 {
		t.Error("script select wrong")
	}
}

func TestParserErrors(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (x FLOAT UNCERTAIN)")
	bad := []string{
		"",
		"FROB x",
		"CREATE TABLE",
		"CREATE TABLE z (x WIBBLE)",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x <",
		"SELECT * FROM t WHERE PROB(x IN [1 2]) > 0.5",
		"INSERT INTO t (x) VALUES (GAUSSIAN(0, -1))",
		"INSERT INTO t (x) VALUES (WEIBULL(1, 2))",
		"INSERT INTO t (x) VALUES (DISCRETE(1:0.5, (1,2):0.5))",
		"INSERT INTO t (x) VALUES (1)", // certain literal for uncertain col
		"SELECT * FROM t WHERE 'a' < 1 AND",
		"CREATE TABLE u (x TEXT UNCERTAIN)",
		"SELECT * FROM t; SELECT * FROM t", // Exec is single-statement
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestParseCommand(t *testing.T) {
	cases := map[string]Command{
		"HEALTH":          CmdHealth,
		"  health ;  ":    CmdHealth,
		"Checkpoint;":     CmdCheckpoint,
		"\tCHECKPOINT\n":  CmdCheckpoint,
		"HEALTH CHECK":    NotCommand,
		"SELECT * FROM t": NotCommand,
		"CHECKPOINT;;":    NotCommand,
		"":                NotCommand,
		"SELECT 'HEALTH'": NotCommand,
	}
	for sql, want := range cases {
		if got := ParseCommand(sql); got != want {
			t.Errorf("ParseCommand(%q) = %d, want %d", sql, got, want)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (x FLOAT UNCERTAIN)")
	bad := []string{
		"CREATE TABLE t (y INT)", // duplicate table
		"INSERT INTO nope (x) VALUES (1)",
		"INSERT INTO t (zz) VALUES (1)",
		"SELECT * FROM nope",
		"SELECT zz FROM t",
		"SELECT * FROM t WHERE zz < 1",
		"DELETE FROM nope",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a.b, 'it''s' FROM t -- comment\nWHERE x <= 1.5e3;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", "FROM", "t", "WHERE", "x", "<=", "1.5e3", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v", texts)
	}
	if _, err := lex("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestPaperExampleEndToEnd(t *testing.T) {
	// The paper's running example, end to end through SQL: Table I and the
	// selection σ_{id=1} (§III-C case 1).
	db := sensorDB(t)
	r := mustExec(t, db, "SELECT rid, value FROM readings WHERE rid = 1")
	d, err := r.Table.DistOf(r.Table.Tuples()[0], "value")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "Gaus(20,5)" {
		t.Errorf("pdf = %v", d)
	}
	_ = dist.CDF // keep dist imported for clarity of intent
}

func TestAggregateSQL(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (k INT, x INT UNCERTAIN)")
	mustExec(t, db, `INSERT INTO t (k, x) VALUES
		(1, DISCRETE(1:0.5, 2:0.5)),
		(2, DISCRETE(10:1.0))`)
	r := mustExec(t, db, "SELECT SUM(x) FROM t")
	if !strings.Contains(r.Message, "SUM(x)") || !strings.Contains(r.Message, "mean=11.5") {
		t.Errorf("sum message = %q", r.Message)
	}
	r = mustExec(t, db, "SELECT COUNT(*) FROM t")
	if !strings.Contains(r.Message, "COUNT(*)") || !strings.Contains(r.Message, "mean=2") {
		t.Errorf("count message = %q", r.Message)
	}
	r = mustExec(t, db, "SELECT AVG(x) FROM t WHERE k = 2")
	if !strings.Contains(r.Message, "mean=10") {
		t.Errorf("avg message = %q", r.Message)
	}
	if _, err := db.Exec("SELECT SUM(zz) FROM t"); err == nil {
		t.Error("aggregate over unknown column should fail")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := sensorDB(t)
	// Rank by survival probability after a floor: most-probable first.
	r := mustExec(t, db, "SELECT rid FROM readings WHERE value < 20 ORDER BY PROB(value) DESC LIMIT 2")
	if r.Table.Len() != 2 {
		t.Fatalf("rows = %d", r.Table.Len())
	}
	// Sensor 3 (Gaus(13,1), nearly all mass below 20) first, then sensor 1.
	first, _ := r.Table.Value(r.Table.Tuples()[0], "rid")
	second, _ := r.Table.Value(r.Table.Tuples()[1], "rid")
	if first.I != 3 || second.I != 1 {
		t.Errorf("ranking = %d, %d; want 3, 1", first.I, second.I)
	}
	// Certain-column ordering.
	r = mustExec(t, db, "SELECT rid FROM readings ORDER BY rid DESC")
	if v, _ := r.Table.Value(r.Table.Tuples()[0], "rid"); v.I != 3 {
		t.Errorf("desc order starts at %d", v.I)
	}
	r = mustExec(t, db, "SELECT rid FROM readings ORDER BY rid ASC LIMIT 1")
	if v, _ := r.Table.Value(r.Table.Tuples()[0], "rid"); v.I != 1 {
		t.Errorf("asc limit 1 got %d", v.I)
	}
	// Errors.
	if _, err := db.Exec("SELECT rid FROM readings ORDER BY value"); err == nil {
		t.Error("ordering by a raw uncertain column should fail")
	}
	if _, err := db.Exec("SELECT rid FROM readings LIMIT -1"); err == nil {
		t.Error("negative limit should fail")
	}
	if _, err := db.Exec("SELECT rid FROM readings LIMIT 1.5"); err == nil {
		t.Error("fractional limit should fail")
	}
}

func TestMVNLiteral(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE obj (id INT, x FLOAT UNCERTAIN, y FLOAT UNCERTAIN, DEPENDENT(x, y))")
	mustExec(t, db, "INSERT INTO obj (id, (x, y)) VALUES (1, MVN((0, 0):((1, 0.7), (0.7, 1))))")
	r := mustExec(t, db, "SELECT * FROM obj WHERE x > 0")
	if r.Table.Len() != 1 {
		t.Fatal("tuple should survive")
	}
	d, err := r.Table.DistOf(r.Table.Tuples()[0], "y")
	if err != nil {
		t.Fatal(err)
	}
	if !(d.Mean(0) > 0.3) {
		t.Errorf("correlated conditional mean = %v, want > 0.3", d.Mean(0))
	}
	if _, err := db.Exec("INSERT INTO obj (id, (x, y)) VALUES (2, MVN((0, 0):((1, 2), (2, 1))))"); err == nil {
		t.Error("non-positive-definite MVN should fail")
	}
}

func TestExplain(t *testing.T) {
	db := sensorDB(t)
	r := mustExec(t, db, "EXPLAIN SELECT rid FROM readings WHERE value < 25 AND PROB(value) > 0.4")
	if !strings.Contains(r.Message, "plan: π(σPr(σ(readings)))") {
		t.Errorf("explain plan = %q", r.Message)
	}
	if !strings.Contains(r.Message, "rows: 3") {
		t.Errorf("explain missing cardinality: %q", r.Message)
	}
	if !strings.Contains(r.Message, "phantom") {
		t.Errorf("explain should list the phantom value column: %q", r.Message)
	}
	r = mustExec(t, db, "EXPLAIN SELECT SUM(value) FROM readings")
	if !strings.Contains(r.Message, "aggregate") {
		t.Errorf("aggregate explain = %q", r.Message)
	}
	if _, err := db.Exec("EXPLAIN DROP TABLE readings"); err == nil {
		t.Error("EXPLAIN of non-SELECT should fail")
	}

	// EXPLAIN renders the filter kernel's strategy, and a repeated
	// range-probability query reads the batch encodings the first one built.
	r = mustExec(t, db, "EXPLAIN SELECT rid FROM readings WHERE PROB(value IN [10, 30]) >= 0.2")
	if strings.Contains(r.Message, "parallelism") {
		t.Errorf("explain still reports a degree of parallelism: %q", r.Message)
	}
	if !strings.Contains(r.Message, "kernel ") || !strings.Contains(r.Message, "vectorized(") {
		t.Errorf("explain should report the kernel strategy: %q", r.Message)
	}
	r = mustExec(t, db, "EXPLAIN SELECT rid FROM readings WHERE PROB(value IN [10, 30]) >= 0.2")
	if strings.Contains(r.Message, "col cache: 0 hits") {
		t.Errorf("second run should find the batch encodings built: %q", r.Message)
	}

	// With vectorization forced off, the same query reports the scalar
	// fallback strategy.
	core.SetVectorizedKernels(false)
	defer core.SetVectorizedKernels(true)
	r = mustExec(t, db, "EXPLAIN SELECT rid FROM readings WHERE PROB(value IN [11, 29]) >= 0.2")
	if !strings.Contains(r.Message, "scalar fallback") {
		t.Errorf("scalar explain should report the fallback strategy: %q", r.Message)
	}
}
