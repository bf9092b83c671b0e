package main

import (
	"sort"
	"time"
)

// metricDef is one named metric: what it measures, in which unit, which
// direction is better, and how far it may worsen before -compare calls it
// a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline by which the metric may worsen.
	// 0 on a gated metric means exact: the values must be identical.
	bound float64
	gate  gateKind
}

type gateKind uint8

const (
	// gateDriver: listed as end_to_end in BENCHMARK.json, whose contract
	// wants every such metric from every workload, never zero, and rejects
	// the benchmark if ten runs of one spread wider than the bound.  Only
	// metrics defined on all four workloads and steady enough on a shared
	// box qualify.  Also gated by -compare.
	gateDriver gateKind = iota
	// gateCompare: an end-to-end metric gated by -compare wherever it is
	// reported, but listed under per_layer in BENCHMARK.json (as 0 where it
	// does not apply): either only some workloads have it (no write latency
	// on a read-only workload), or its run-to-run spread on this box comes
	// too close to the contract's widest bound (the latency percentiles).
	gateCompare
	// gateNone: a per-layer metric.  Printed and compared, never gated.
	gateNone
)

// metricDefs is the one table of metric names; BENCHMARK.json, the report,
// -compare and the smoke test are all checked against it.
var metricDefs = []metricDef{
	// End to end, on every workload, and steady.
	{"setup_s", "s", "lower", 0.25, gateDriver},
	{"ops_per_s", "1/s", "higher", 0.25, gateDriver},
	{"alloc_kb_per_op", "KiB", "lower", 0.20, gateDriver},
	{"allocs_per_op", "objects", "lower", 0.20, gateDriver},

	// End to end: latencies over every op, and whatever only some
	// workloads have.
	{"op_p50_us", "us", "lower", 0.25, gateCompare},
	{"op_p90_us", "us", "lower", 0.25, gateCompare},
	{"read_p50_us", "us", "lower", 0.25, gateCompare},
	{"read_p90_us", "us", "lower", 0.25, gateCompare},
	{"write_p50_us", "us", "lower", 0.25, gateCompare},
	{"write_p90_us", "us", "lower", 0.25, gateCompare},
	{"names_p50_us", "us", "lower", 0.25, gateCompare},
	{"names_p90_us", "us", "lower", 0.25, gateCompare},
	{"stat_p50_us", "us", "lower", 0.25, gateCompare},
	{"propagate_pass_ms", "ms", "lower", 0.25, gateCompare},
	{"converge_s", "s", "lower", 0.25, gateCompare},
	{"rpcs_per_op", "count", "lower", 0, gateCompare},
	{"wire_bytes_per_op", "bytes", "lower", 0, gateCompare},
	{"disk_ios_per_op", "count", "lower", 0, gateCompare},

	// Per layer: counts from the timed run.
	{"disk.reads_per_op", "count", "lower", 0, gateNone},
	{"disk.writes_per_op", "count", "lower", 0, gateNone},
	{"ufs.buffer_hit_ratio", "ratio", "higher", 0, gateNone},
	{"ufs.inode_hit_ratio", "ratio", "higher", 0, gateNone},
	{"ufs.dnlc_hit_ratio", "ratio", "higher", 0, gateNone},
	{"ufs.stored_bytes_per_user_byte", "ratio", "lower", 0, gateNone},
	{"physical.cold_open_extra_ios", "count", "lower", 0, gateNone},
	{"physical.warm_open_extra_ios", "count", "lower", 0, gateNone},
	{"physical.pool_blocks", "count", "lower", 0, gateNone},
	{"physical.manifests_sealed_per_write", "count", "lower", 0, gateNone},
	{"physical.blocks_shipped_per_pull", "count", "lower", 0, gateNone},
	{"physical.blocks_reused_per_pull", "count", "higher", 0, gateNone},
	{"physical.delta_bytes_saved_ratio", "ratio", "higher", 0, gateNone},
	{"nfs.rpcs_per_op", "count", "lower", 0, gateNone},
	{"nfs.wire_bytes_per_op", "bytes", "lower", 0, gateNone},
	{"core.datagrams_per_update", "count", "lower", 0, gateNone},
	{"core.datagram_bytes_per_update", "bytes", "lower", 0, gateNone},
	{"core.pending_versions_max", "count", "lower", 0, gateNone},
	{"core.restart_ms", "ms", "lower", 0, gateNone},
	{"repl.rpcs_per_pass", "count", "lower", 0, gateNone},
	{"repl.rpcs_per_pulled_file", "count", "lower", 0, gateNone},
	{"repl.wire_bytes_per_pulled_file", "bytes", "lower", 0, gateNone},
	{"recon.files_pulled_per_pass", "count", "higher", 0, gateNone},
	{"recon.rounds_to_converge", "count", "lower", 0, gateNone},
	{"recon.dirs_visited_per_round", "count", "lower", 0, gateNone},
	{"recon.entries_adopted", "count", "lower", 0, gateNone},
	{"recon.conflicts_reported", "count", "lower", 0, gateNone},
	{"ficus.read_p99_us", "us", "lower", 0, gateNone},
	{"ficus.write_p99_us", "us", "lower", 0, gateNone},
	{"ficus.names_p99_us", "us", "lower", 0, gateNone},
	{"ficus.stat_p99_us", "us", "lower", 0, gateNone},
	{"ficus.cpu_ms_per_op", "ms", "lower", 0, gateNone},
	{"ficus.failed_ops", "count", "lower", 0, gateNone},

	// Per layer: times from the traced run on the rig.
	{"logical.self_us.read", "us", "lower", 0, gateNone},
	{"logical.self_us.write", "us", "lower", 0, gateNone},
	{"logical.self_us.names", "us", "lower", 0, gateNone},
	{"logical.self_us.stat", "us", "lower", 0, gateNone},
	{"logical.downcalls_per_op", "count", "lower", 0, gateNone},
	{"nfs.self_us.read", "us", "lower", 0, gateNone},
	{"nfs.self_us.write", "us", "lower", 0, gateNone},
	{"nfs.self_us.names", "us", "lower", 0, gateNone},
	{"nfs.self_us.stat", "us", "lower", 0, gateNone},
	{"nfs.rpcs_per_call", "count", "lower", 0, gateNone},
	{"physical.self_us.read", "us", "lower", 0, gateNone},
	{"physical.self_us.write", "us", "lower", 0, gateNone},
	{"physical.self_us.names", "us", "lower", 0, gateNone},
	{"physical.self_us.stat", "us", "lower", 0, gateNone},
	{"physical.storecalls_per_call", "count", "lower", 0, gateNone},
	{"ufs.self_us.read", "us", "lower", 0, gateNone},
	{"ufs.self_us.write", "us", "lower", 0, gateNone},
	{"ufs.self_us.names", "us", "lower", 0, gateNone},
	{"ufs.self_us.stat", "us", "lower", 0, gateNone},
	{"vnode.crossing_ns", "ns", "lower", 0, gateNone},
	{"recon.self_ms_per_pass", "ms", "lower", 0, gateNone},
	{"recon.store_ms_per_pass", "ms", "lower", 0, gateNone},
	{"repl.self_ms_per_pass", "ms", "lower", 0, gateNone},
	{"repl.origin_store_ms_per_pass", "ms", "lower", 0, gateNone},
	{"trace.overhead_ratio", "ratio", "lower", 0, gateNone},
	{"trace.spans", "count", "lower", 0, gateNone},
}

func metricByName(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// metricVal is one reported number.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a workload's metrics by name, taking each unit from
// metricDefs so a name can never be reported under two units.
type metricSet map[string]metricVal

func (s metricSet) put(name string, v float64) {
	d := metricByName(name)
	if d == nil {
		panic("bench: metric " + name + " is not in metricDefs")
	}
	if _, dup := s[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	s[name] = metricVal{Value: v, Unit: d.unit}
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
