package trace

import (
	"testing"

	"jportal/internal/pt"
	"jportal/internal/source"
	"jportal/internal/vm"
)

func tscItem(ts uint64) source.Item {
	return source.Item{Packet: source.Packet{Kind: pt.KTSC, TSC: ts, WireLen: 8}}
}

func tipItem(ip uint64) source.Item {
	return source.Item{Packet: source.Packet{Kind: pt.KTIP, IP: ip, WireLen: 4}}
}

func TestSplitSingleThread(t *testing.T) {
	cores := []source.CoreTrace{{
		Core: 0,
		Items: []source.Item{
			tscItem(0), tipItem(1), tipItem(2),
			tscItem(100), tipItem(3),
		},
	}}
	sideband := []vm.SwitchRecord{{Core: 0, TSC: 0, Thread: 0}}
	streams := SplitByThread(cores, sideband, pt.Traits())
	if len(streams) != 1 {
		t.Fatalf("streams: %d", len(streams))
	}
	if len(streams[0].Items) != 5 {
		t.Errorf("items: %d", len(streams[0].Items))
	}
}

func TestSplitTwoThreadsOneCore(t *testing.T) {
	cores := []source.CoreTrace{{
		Core: 0,
		Items: []source.Item{
			tscItem(0), tipItem(1), tipItem(2),
			tscItem(100), tipItem(3), // thread 1's window begins at 100
			tscItem(220), tipItem(4),
		},
	}}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 0, TSC: 100, Thread: 1},
		{Core: 0, TSC: 200, Thread: 0},
	}
	streams := SplitByThread(cores, sideband, pt.Traits())
	count := func(tid int) (tips int) {
		for _, it := range streams[tid].Items {
			if !it.IsGap() && it.Packet.Kind == pt.KTIP {
				tips++
			}
		}
		return
	}
	if count(0) != 3 { // tips 1,2 then 4
		t.Errorf("thread0 tips = %d", count(0))
	}
	if count(1) != 1 { // tip 3
		t.Errorf("thread1 tips = %d", count(1))
	}
}

func TestSplitStitchesAcrossCores(t *testing.T) {
	cores := []source.CoreTrace{
		{Core: 0, Items: []source.Item{tscItem(0), tipItem(1)}},
		{Core: 1, Items: []source.Item{tscItem(100), tipItem(2)}},
	}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 1, TSC: 100, Thread: 0},
	}
	streams := SplitByThread(cores, sideband, pt.Traits())
	if len(streams[0].Items) != 4 {
		t.Fatalf("stitched items: %d", len(streams[0].Items))
	}
	// Windows in time order: core0's first.
	if streams[0].Items[1].Packet.IP != 1 || streams[0].Items[3].Packet.IP != 2 {
		t.Error("stitch order wrong")
	}
}

func TestSplitClipsGapsToWindows(t *testing.T) {
	// A gap on core 0 spans two scheduling windows (threads 0 then 1):
	// each thread receives only its share.
	cores := []source.CoreTrace{{
		Core: 0,
		Items: []source.Item{
			tscItem(0), tipItem(1),
			source.GapItem(1000, 50, 250),
			tscItem(260), tipItem(2),
		},
	}}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 0, TSC: 100, Thread: 1},
		{Core: 0, TSC: 200, Thread: 1},
	}
	streams := SplitByThread(cores, sideband, pt.Traits())
	var g0, g1 []source.Item
	for _, it := range streams[0].Items {
		if it.IsGap() {
			g0 = append(g0, it)
		}
	}
	for _, it := range streams[1].Items {
		if it.IsGap() {
			g1 = append(g1, it)
		}
	}
	if len(g0) != 1 || g0[0].GapStart() != 50 || g0[0].GapEnd() != 100 {
		t.Errorf("thread0 gaps: %+v", g0)
	}
	if len(g1) == 0 {
		t.Fatalf("thread1 got no gap share")
	}
	var covered uint64
	var bytes uint64
	for _, g := range append(g0, g1...) {
		covered += g.GapEnd() - g.GapStart()
		bytes += g.LostBytes()
	}
	if covered != 200 {
		t.Errorf("gap coverage %d, want 200", covered)
	}
	// Lost bytes are apportioned (within rounding).
	if bytes < 990 || bytes > 1000 {
		t.Errorf("apportioned bytes: %d", bytes)
	}
}

func TestSplitNoSidebandForCore(t *testing.T) {
	cores := []source.CoreTrace{
		{Core: 0, Items: []source.Item{tscItem(0), tipItem(1)}},
		{Core: 7, Items: []source.Item{tscItem(0), tipItem(9)}}, // never scheduled
	}
	sideband := []vm.SwitchRecord{{Core: 0, TSC: 0, Thread: 0}}
	streams := SplitByThread(cores, sideband, pt.Traits())
	if len(streams) != 1 || len(streams[0].Items) != 2 {
		t.Errorf("unexpected streams: %+v", streams)
	}
}

func TestSplitIdleWindowsBoundGaps(t *testing.T) {
	// Thread 0 runs on core 0 until t=100, then the core goes idle
	// (Thread -1). A loss episode spanning [50, 400] must be clipped at
	// the idle boundary: thread 0 only lost data while it was running.
	cores := []source.CoreTrace{{
		Core: 0,
		Items: []source.Item{
			tscItem(0), tipItem(1),
			source.GapItem(700, 50, 400),
			tscItem(410), tipItem(2),
		},
	}}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 0, TSC: 100, Thread: -1},
		{Core: 0, TSC: 405, Thread: 0},
	}
	streams := SplitByThread(cores, sideband, pt.Traits())
	var gaps []source.Item
	for _, it := range streams[0].Items {
		if it.IsGap() {
			gaps = append(gaps, it)
		}
	}
	if len(gaps) != 1 {
		t.Fatalf("gaps: %+v", gaps)
	}
	if gaps[0].GapStart() != 50 || gaps[0].GapEnd() != 100 {
		t.Errorf("gap not clipped at idle: [%d,%d]", gaps[0].GapStart(), gaps[0].GapEnd())
	}
}

func TestCollapseRuns(t *testing.T) {
	recs := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 2},
		{Core: 0, TSC: 50, Thread: 2},
		{Core: 0, TSC: 100, Thread: -1},
		{Core: 0, TSC: 150, Thread: -1},
		{Core: 0, TSC: 200, Thread: 2},
	}
	got := collapseRuns(recs)
	if len(got) != 3 || got[0].TSC != 0 || got[1].TSC != 100 || got[2].TSC != 200 {
		t.Errorf("collapsed: %+v", got)
	}
}
