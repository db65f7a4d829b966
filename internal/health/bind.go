package health

import (
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// DefaultTargetObjectives are the stock SLOs for a target: command
// error ratio under 2%.
func DefaultTargetObjectives() []Objective {
	return []Objective{ErrorRatioObjective("target-error-ratio", 0.02)}
}

// DefaultMountObjectives are the stock per-tenant SLOs for a mount:
// at most 5% of namespace operations may fail (quota rejections
// included — a tenant pinned at quota is an unhealthy tenant).
func DefaultMountObjectives() []Objective {
	return []Objective{ErrorRatioObjective("mount-error-ratio", 0.05)}
}

// BindTarget registers a target-side subject under kind "target". It
// collects from the target's own snapshot.
func BindTarget(e *Engine, tgt *nvmeof.Target, name string, objectives []Objective) (*Subject, error) {
	if objectives == nil {
		objectives = DefaultTargetObjectives()
	}
	series := make([]SeriesPoint, len(objectives))
	sub, err := e.Register(SubjectConfig{
		Kind:       "target",
		Name:       name,
		Objectives: objectives,
		Collect: func() Sample {
			snap := tgt.Snapshot()
			for i := range objectives {
				series[i] = SeriesPoint{Total: snap.Commands, Bad: snap.Errors}
			}
			return Sample{
				Series:   series,
				Commands: snap.Commands,
				Errors:   snap.Errors,
				Latency:  snap.Latency.P99.Seconds(),
				Live:     true,
			}
		},
		Blackbox: func() any { return tgt.Flight().Snapshot() },
	})
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// BindNamespace registers one subject per mount under kind "mount",
// giving every tenant its own SLO. perMount overrides objectives for
// specific mounts by name; everything else gets def (nil =
// DefaultMountObjectives).
func BindNamespace(e *Engine, ns *vfs.Namespace, perMount map[string][]Objective, def []Objective) ([]*Subject, error) {
	if def == nil {
		def = DefaultMountObjectives()
	}
	var subs []*Subject
	for _, m := range ns.Mounts() {
		m := m
		objectives := def
		if o, ok := perMount[m.Name()]; ok {
			objectives = o
		}
		objectives = append([]Objective(nil), objectives...)
		series := make([]SeriesPoint, len(objectives))
		s, err := e.Register(SubjectConfig{
			Kind:       "mount",
			Name:       m.Name(),
			Objectives: objectives,
			Collect: func() Sample {
				st := m.Stats()
				bad := st.Errors + st.QuotaRejections
				for i := range objectives {
					series[i] = SeriesPoint{Total: st.Ops, Bad: bad}
				}
				return Sample{
					Series:   series,
					Commands: st.Ops,
					Errors:   bad,
					Live:     true,
				}
			},
		})
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	return subs, nil
}
