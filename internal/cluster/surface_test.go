package cluster

import (
	"reflect"
	"slices"
	"testing"

	"skv/internal/core"
	"skv/internal/model"
	"skv/internal/server"
	"skv/internal/workload"
)

// TestConfigSurface pins every settable value of a deployment: the exported
// fields of the cost model, the cluster, SKV, server and client configs.
// Each field is one more thing every test must cover, so ROADMAP's rule
// stands: a simplification adds no Config/Params/Options field. A field
// that must exist anyway is added here in the same change, with its reason.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{model.Params{}, []string{
			"HostCoreSpeed", "NICCoreSpeed", "NICCores",
			"LinkBandwidthBps", "WireLatency", "NICSwitchLatency", "PCIeLatency",
			"RDMASenderProc", "RDMAReceiverProc", "CPUPostWR", "CPUCompletion", "CompChannelWake",
			"TCPRxCPU", "TCPTxCPU", "TCPPerByteCPU", "TCPStackLatency", "TCPWakeup",
			"CmdParseCPU", "CmdParsePerByte", "CmdExecSetCPU", "CmdExecGetCPU", "CmdExecPerByte", "ReplyBuildCPU",
			"ReplFeedSlaveCPU", "ReplFeedJitterP", "ReplFeedJitterCPU", "ReplOffloadReqCPU", "NicParseReqCPU",
			"NicFeedSlaveCPU", "SlaveApplyCPU", "ReplBatchMaxCmds", "ReplBatchMaxDelay", "RDBPerByte",
			"HostShards", "ShardRouteCPU", "ShardMergeCPU", "ShardFenceCPU", "RouteListeners", "SlotCheckCPU",
			"ForkCPU", "CronPeriod", "CronCPU", "ExecJitterSigma",
			"ProbePeriod", "WaitingTime", "ProbeCPU", "RetryTimeout",
			"TrackInterestCPU", "NicInvalidateCPU", "ClientThinkCPU", "ClientWakeup",
		}},
		{Config{}, []string{
			"Kind", "Slaves", "Clients", "Params", "Seed", "KeySpace", "ValueSize", "GetRatio", "Zipf",
			"Pipeline", "Cluster", "SKV", "NicReads", "Consistency", "Tracking",
		}},
		{ClusterOpts{}, []string{"Masters", "SlavesPerMaster"}},
		{ConsistencyOpts{}, []string{"Level", "Quorum"}},
		{core.Config{}, []string{
			"MinSlaves", "MaxLag", "ThreadNum", "ProgressInterval", "ServeReadsFromNIC", "Group", "WriteConsistency",
		}},
		{server.Options{}, []string{
			"Name", "Params", "Seed", "Port", "DisableCron", "Cluster", "WriteConsistency", "WriteQuorum",
		}},
		{workload.Options{}, []string{"Addr", "Pipeline", "Tracking"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s has fields %q, want %q: a simplification adds no Config/Params/Options field (ROADMAP)",
				typ, got, tc.want)
		}
	}
}
