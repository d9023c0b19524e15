(* The service's latency summary is the one every load source reports. *)
include Diva_workload.Latency
