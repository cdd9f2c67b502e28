// Benchmarks regenerating the paper's evaluation: every experiment in the
// bench registry (the paper's figures, the ablations, and the extensions) as
// a sub-benchmark, with its headline numbers reported as custom metrics,
// plus engine microbenchmarks.
//
//	go test -bench=Experiment/fig11 -benchmem .
package skv_test

import (
	"fmt"
	"testing"

	"skv/internal/bench"
	"skv/internal/dict"
	"skv/internal/rdb"
	"skv/internal/resp"
	"skv/internal/skiplist"
	"skv/internal/store"
)

// BenchmarkExperiment executes one reproduction of each registered
// experiment per iteration and reports its headline metrics.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			var e *bench.Experiment
			for i := 0; i < b.N; i++ {
				e = bench.ByID(id)
			}
			for k, v := range e.Metrics {
				b.ReportMetric(v, k)
			}
		})
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
