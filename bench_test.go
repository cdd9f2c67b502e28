// Benchmarks regenerating the paper's evaluation: every experiment in the
// bench registry (the paper's figures, the ablations, and the extensions) as
// a sub-benchmark, with every number in its table reported as a custom
// metric, plus engine microbenchmarks.
//
//	go test -bench=Experiment/fig11 -benchmem .
package skv_test

import (
	"fmt"
	"strings"
	"testing"
	"unicode"

	"skv/internal/bench"
	"skv/internal/dict"
	"skv/internal/rdb"
	"skv/internal/resp"
	"skv/internal/skiplist"
	"skv/internal/store"
)

// BenchmarkExperiment executes one reproduction of each registered
// experiment per iteration and reports every numeric cell outside the key
// columns, under metricKey's name for it.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			var e *bench.Experiment
			for i := 0; i < b.N; i++ {
				e = bench.ByID(id)
			}
			for i, row := range e.Rows {
				for j, c := range e.Cols {
					if !c.Key && c.Numeric(row[j]) {
						b.ReportMetric(row[j].V, metricKey(e.RowKey(i), c.Name))
					}
				}
			}
		})
	}
}

// metricKey names a cell by its row's key cells and its column, e.g.
// "8,host,on:tput_kops/s". testing.B.ReportMetric panics on a unit holding
// whitespace, so every run of whitespace becomes one underscore.
func metricKey(rowKey []string, col string) string {
	name := col
	if len(rowKey) > 0 {
		name = strings.Join(rowKey, ",") + ":" + col
	}
	return strings.Join(strings.Fields(name), "_")
}

func TestMetricKey(t *testing.T) {
	for _, tc := range []struct {
		key  []string
		col  string
		want string
	}{
		{[]string{"host ↔ host"}, "64B", "host_↔_host:64B"},
		{[]string{"8", "host", "on"}, "tput kops/s", "8,host,on:tput_kops/s"},
		{[]string{"quorum W=2"}, "p99 µs", "quorum_W=2:p99_µs"},
		{nil, "since crash (s)", "since_crash_(s)"},
	} {
		got := metricKey(tc.key, tc.col)
		if got != tc.want {
			t.Errorf("metricKey(%q, %q) = %q, want %q", tc.key, tc.col, got, tc.want)
		}
		if strings.IndexFunc(got, unicode.IsSpace) >= 0 {
			t.Errorf("metricKey(%q, %q) = %q holds whitespace", tc.key, tc.col, got)
		}
	}
}

// ---- Engine microbenchmarks (real CPU time, not virtual) ----

func BenchmarkDictSet(b *testing.B) {
	d := dict.New(1)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Set(keys[i&(1<<16-1)], i)
	}
}

func BenchmarkDictGet(b *testing.B) {
	d := dict.New(1)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		d.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Get(keys[i&(1<<16-1)])
	}
}

func BenchmarkSkiplistInsertDelete(b *testing.B) {
	sl := skiplist.New(1)
	members := make([]string, 4096)
	for i := range members {
		members[i] = fmt.Sprintf("m:%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := members[i&4095]
		sl.Insert(m, float64(i&1023))
		sl.Delete(m, float64(i&1023))
	}
}

func BenchmarkRESPParseCommand(b *testing.B) {
	cmd := resp.EncodeCommand("SET", "key:0000012345", "some-reasonably-sized-value-payload")
	b.SetBytes(int64(len(cmd)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r resp.Reader
		r.Feed(cmd)
		if _, ok, err := r.ReadCommand(); !ok || err != nil {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkStoreSET(b *testing.B) {
	st := store.New(store.Options{DBs: 1, Seed: 1})
	argv := [][]byte{[]byte("SET"), []byte("key"), []byte("value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Exec(0, argv)
	}
}

func BenchmarkStoreGET(b *testing.B) {
	st := store.New(store.Options{DBs: 1, Seed: 1})
	st.Exec(0, [][]byte{[]byte("SET"), []byte("key"), []byte("value")})
	argv := [][]byte{[]byte("GET"), []byte("key")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Exec(0, argv)
	}
}

func BenchmarkRDBDumpLoad(b *testing.B) {
	st := store.New(store.Options{DBs: 1, Seed: 1})
	for i := 0; i < 10_000; i++ {
		st.Exec(0, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("key:%d", i)), []byte("value-0123456789")})
	}
	dst := store.New(store.Options{DBs: 1, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dump := rdb.Dump(st)
		if err := rdb.Load(dst, dump); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(dump)))
	}
}
