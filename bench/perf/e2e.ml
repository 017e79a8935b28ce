(* The end-to-end run: a closed loop, one job at a time, in one process.

   1. Set-up (build the fabric, sample destinations, generate traffic)
      is timed [setup_reps] times; [setup_s] is the median. The count is
      fixed, not timed, so the heap before rep 0 is the same every run.
   2. Rep 0 is the warm-up, the only peak-RSS reading and the source of
      every deterministic metric.
   3. One untimed route at [check_jobs] domains must give rep 0's table.
   4. Timed reps follow until [seconds] have passed, at least
      [min_timed_reps]; timings are their medians.

   Reps run at jobs=1: on the 2-core machine the bounds were measured on,
   jobs=2 route times spread 7-14% between runs, jobs=1 times 2-6%. A rep
   is route -> verify, plus simulate on the sim workloads. It fails when
   the table does not verify, a simulation does not deliver every packet,
   or its table or outputs differ from rep 0's. Failures are counted,
   never fatal. *)

module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Experiment = Nue_pipeline.Experiment
module Network = Nue_netgraph.Network
module Sim = Nue_sim.Sim
module Pool = Nue_parallel.Pool
module Fi = Nue_metrics.Forwarding_index
module Ps = Nue_metrics.Pathstats

let check_jobs = 2
let setup_reps = 21
let min_timed_reps = 3

let time f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

let route ~jobs w inputs =
  Pool.set_default_jobs jobs;
  match Engine.route "nue" (Workload.spec w inputs) with
  | Ok t -> t
  | Error e -> failwith ("nue: " ^ Engine_error.to_string e)

(* Tables compared as next channels plus per-destination VLs. *)
let same_table (a : Table.t) (b : Table.t) =
  a.Table.dests = b.Table.dests
  && a.Table.next_channel = b.Table.next_channel
  &&
  match (a.Table.vl, b.Table.vl) with
  | Table.Per_dest x, Table.Per_dest y -> x = y
  | Table.All_zero, Table.All_zero -> true
  | _ -> false

let verified (r : Verify.report) =
  r.Verify.connected && r.Verify.cycle_free && r.Verify.deadlock_free

let delivered (o : Sim.outcome) =
  (not o.Sim.deadlock)
  && o.Sim.delivered_packets = o.Sim.total_packets
  && o.Sim.dropped_packets = 0

let flits (o : Sim.outcome) =
  float_of_int (o.Sim.delivered_bytes / Sim.default_config.Sim.flit_bytes)

type rep = {
  table : Table.t;
  report : Verify.report;
  sim : Sim.outcome option;
  route_s : float;
  verify_s : float;
  sim_s : float;
}

let run_rep (w : Workload.t) (inputs : Workload.inputs) =
  let table, route_s = time (fun () -> route ~jobs:1 w inputs) in
  let report, verify_s = time (fun () -> Verify.check table) in
  if not (verified report) then failwith "table fails Verify.check";
  let sim, sim_s =
    if not w.Workload.simulate then (None, 0.0)
    else begin
      let o, s =
        time (fun () ->
            Sim.run ~config:(Workload.sim_config w) table
              ~traffic:inputs.Workload.traffic)
      in
      if not (delivered o) then failwith "simulation did not deliver every packet";
      (Some o, s)
    end
  in
  { table; report; sim; route_s; verify_s; sim_s }

(* Peak resident set size of this process so far, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | _ -> scan ()
  in
  scan ()

let run (w : Workload.t) ~seed ~seconds =
  let setup_s =
    Stats.median
      (List.init setup_reps (fun _ -> snd (time (fun () -> Workload.setup w ~seed))))
  in
  let inputs = Workload.setup w ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let counted label f =
    incr attempted;
    match f () with
    | Ok x -> Some x
    | Error why ->
      incr failed;
      Printf.printf "  %s FAILED: %s\n%!" label why;
      None
    | exception e ->
      incr failed;
      Printf.printf "  %s FAILED: %s\n%!" label (Printexc.to_string e);
      None
  in
  let first = counted "rep 0" (fun () -> Ok (run_rep w inputs)) in
  let peak_rss = peak_rss_mb () in
  let measured = Option.map (fun r -> Experiment.measure r.table) first in
  let differs table =
    match first with
    | Some f when not (same_table table f.table) -> Some "table differs from rep 0"
    | _ -> None
  in
  ignore
    (counted (Printf.sprintf "jobs=%d route" check_jobs) (fun () ->
         match differs (route ~jobs:check_jobs w inputs) with
         | Some why -> Error why
         | None -> Ok ()));
  (* Only the timings of a timed rep are kept: retaining its table would
     grow the major heap, and with it the GC's work, rep after rep. *)
  let timed = ref [] and reps = ref 0 in
  let t0 = Spans.now () in
  while !reps < min_timed_reps || Spans.now () -. t0 < seconds do
    incr reps;
    let label = Printf.sprintf "rep %d" !reps in
    Option.iter
      (fun r -> timed := (r.route_s, r.verify_s, r.sim_s) :: !timed)
      (counted label (fun () ->
           let r = run_rep w inputs in
           match (differs r.table, first) with
           | Some why, _ -> Error why
           | None, Some f when r.report <> f.report || r.sim <> f.sim ->
             Error "outputs differ from rep 0"
           | None, _ -> Ok r))
  done;
  let timed = List.rev !timed in
  List.iteri
    (fun i (route_s, verify_s, sim_s) ->
       Printf.printf "  rep %d  route %.4fs  verify %.4fs  sim %.4fs\n" (i + 1)
         route_s verify_s sim_s)
    timed;
  let med f = Stats.median (List.map f timed) in
  let det f = match measured with Some m -> f m | None -> Float.nan in
  let report =
    { Report.attempted = !attempted;
      failed = !failed;
      metrics =
        [ Report.metric "setup_s" "s" setup_s;
          Report.metric "table_s" "s" (med (fun (r, v, _) -> r +. v));
          Report.metric "pipeline_s" "s" (med (fun (r, v, s) -> r +. v +. s));
          Report.metric "peak_rss_mb" "MB" peak_rss;
          Report.metric "vls_used" "VLs"
            (det (fun m -> float_of_int m.Experiment.vls_used));
          Report.metric "fwd_index_max" "paths/channel"
            (det (fun m -> m.Experiment.forwarding.Fi.max));
          Report.metric "path_hops_avg" "hops"
            (det (fun m -> m.Experiment.paths.Ps.avg_hops)) ] }
  in
  (* Reported for reading only: the sim workloads' user-facing outputs
     (the traced run emits them as per-layer metrics). *)
  (match Option.bind first (fun r -> r.sim) with
   | Some o ->
     let terminals = Network.num_terminals inputs.Workload.built.Experiment.net in
     Printf.printf
       "  sim: %d packets, %.0f flits, %d cycles, %.0f flits/s (median of %d), \
        accepted %.4f flits/cycle/terminal, latency p50 %.1f p95 %.1f cycles\n"
       o.Sim.total_packets (flits o) o.Sim.cycles
       (med (fun (_, _, s) -> flits o /. s))
       (List.length timed)
       (flits o /. float_of_int o.Sim.cycles /. float_of_int terminals)
       o.Sim.latency_p50 o.Sim.latency_p95
   | None -> ());
  let gc = Gc.quick_stat () in
  Printf.printf
    "  failed_ratio %d/%d  timed reps %d  gc: %d minor, %d major collections, \
     top heap %.1f Mwords\n"
    !failed !attempted (List.length timed) gc.Gc.minor_collections
    gc.Gc.major_collections
    (float_of_int gc.Gc.top_heap_words /. 1e6);
  report
