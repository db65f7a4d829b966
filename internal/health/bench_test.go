package health

import (
	"strconv"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// BenchmarkEngineTick measures one evaluation pass over a realistic
// subject count; steady state must not allocate beyond verdict-free
// bookkeeping.
func BenchmarkEngineTick(b *testing.B) {
	reg := telemetry.New()
	e := New(Config{Registry: reg})
	for i := 0; i < 16; i++ {
		c := reg.Counter("nvmecr_mount_ops_total", telemetry.Labels{"mount": strconv.Itoa(i)})
		c.Add(uint64(1000 * i))
		series := make([]SeriesPoint, 1)
		if _, err := e.Register(SubjectConfig{
			Kind: "mount", Name: "bench/" + strconv.Itoa(i),
			Objectives: []Objective{ErrorRatioObjective("o", 0.01)},
			Collect: func() Sample {
				n := c.Value()
				series[0] = SeriesPoint{Total: n}
				return Sample{Series: series, Commands: n, Live: true}
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
	e.Tick() // baseline every objective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick()
	}
}
