package core_test

import (
	"fmt"
	"testing"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/source"
	"jportal/internal/workload"
)

// TestPiecesMatchWholeSegmentAllSubjects: every segment of every subject,
// lossless (default buffers) and lossy (16KB buffers), from each trace
// source, is reconstructed cut into pieces of 1 to 8 and 64 tokens exactly
// as the whole-segment loop reconstructs it.
func TestPiecesMatchWholeSegmentAllSubjects(t *testing.T) {
	for _, id := range source.Registered() {
		for _, buf := range []uint64{0, 16 << 10} {
			for _, name := range workload.Names() {
				s := workload.MustLoad(name, 0.1)
				rcfg := jportal.DefaultRunConfig()
				rcfg.CollectOracle = false
				rcfg.Source = id
				if buf > 0 {
					rcfg.PT.BufBytes = buf
				}
				run, err := jportal.Run(s.Program, s.Threads, rcfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", id, name, err)
				}
				an, err := jportal.Analyze(s.Program, run, core.DefaultPipelineConfig())
				if err != nil {
					t.Fatalf("%s/%s: %v", id, name, err)
				}
				m := an.Pipeline.Matcher
				sc := m.NewScratch()
				segs, multi := 0, 0
				for _, th := range an.Threads {
					for i, f := range th.Flows {
						what := fmt.Sprintf("%s/%s buf %d thread %d segment %d", id, name, buf, th.Thread, i)
						if core.CheckPieces(t, m, sc, f.Seg, what) > 1 {
							multi++
						}
						segs++
					}
				}
				if multi == 0 {
					t.Errorf("%s/%s buf %d: none of %d segments cut into pieces", id, name, buf, segs)
				}
			}
		}
	}
}
