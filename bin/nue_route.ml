(* nue_route: command-line front end, mirroring how OpenSM operators
   interact with routing engines.

   Topology construction, fault injection, routing, verification and
   metrics all go through the shared experiment pipeline
   (Nue_pipeline.Experiment); algorithms are dispatched by name through
   the engine registry (Nue_routing.Engine), so every registered engine
   is automatically available behind --algorithm.

   Subcommands:
     route    generate a topology, route it, verify, print statistics
     sim      additionally run a flit-level all-to-all simulation
     sweep    ramp offered load over a workload; saturation curve + hotspots
     dump     print the linear forwarding table of one switch
     export   write network/DOT/LFT files
     compare  run every registered engine side by side
     explain  hop-by-hop provenance trail of one (src, dst) pair
     inspect  render a virtual layer's complete CDG as DOT
     churn    replay a live fault/repair stream with incremental rerouting
     profile  route with per-phase allocation and pool-utilization profiling

   Exit codes: 0 ok, 1 routing failure or unbuildable input, 2 table not
   connected or not deadlock-free, 3 simulated deadlock, 124 usage error.

   Example:
     nue_route route --topology torus --dims 4x4x3 --terminals 4 \
       --algorithm nue --vcs 2 --kill-switches 5 --format json *)

open Cmdliner

module Network = Nue_netgraph.Network
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Table = Nue_routing.Table
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Obs = Nue_obs.Obs
module Provenance = Nue_core.Provenance
module Verify = Nue_routing.Verify

(* {1 Topology construction} *)

(* Print an input error the fabric or a stream cannot be built from and
   exit 1. *)
let input_error msg =
  Printf.eprintf "nue_route: %s\n" msg;
  exit 1

let read_input path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> input_error msg

let build_topology ~topology ~dims ~terminals ~switches ~links ~seed
    ~kill_switches ~link_failures ~file =
  let topo =
    if file <> "" then Experiment.From_file file
    else
      match topology with
      | "mesh" -> Experiment.Mesh { dims; terminals }
      | "torusnd" -> Experiment.Torus_nd { dims; terminals }
      | "hypercube" -> Experiment.Hypercube { dim = switches; terminals }
      | "full" -> Experiment.Fully_connected { switches; terminals }
      | "torus" ->
        Experiment.Torus3d
          { dims = (dims.(0), dims.(1), dims.(2)); terminals; redundancy = 1 }
      | "random" -> Experiment.Random { switches; links; terminals }
      | "fattree" -> Experiment.Kary_ntree { k = switches; n = 3; terminals }
      | "dragonfly" ->
        Experiment.Dragonfly
          { a = switches; p = terminals; h = switches / 2; g = switches + 1 }
      | "kautz" ->
        Experiment.Kautz
          { degree = switches; diameter = 3; terminals; redundancy = 1 }
      | "cascade" -> Experiment.Cascade
      | "tsubame" -> Experiment.Tsubame25
      | other -> input_error (Printf.sprintf "unknown topology %S" other)
  in
  let faults =
    if kill_switches <> [] then Experiment.Kill_switches kill_switches
    else if link_failures <> 0.0 then Experiment.Link_failures link_failures
    else Experiment.No_faults
  in
  match Experiment.build (Experiment.setup ~faults ~seed topo) with
  | built -> built
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
    input_error msg

(* {1 Reporting} *)

let report_text built (o : Experiment.outcome) =
  match (o.Experiment.table, o.Experiment.metrics) with
  | Error e, _ ->
    Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
    exit 1
  | Ok table, Some m ->
    Format.printf "%a@." Network.pp built.Experiment.net;
    Printf.printf "algorithm: %s, %d destinations, %d VLs\n"
      table.Table.algorithm
      (Array.length table.Table.dests)
      table.Table.num_vls;
    List.iter
      (fun (k, v) -> Printf.printf "  %-16s %.0f\n" k v)
      table.Table.info;
    let r = m.Experiment.verify in
    let module V = Nue_routing.Verify in
    Printf.printf "connected:      %b\n" r.V.connected;
    Printf.printf "cycle-free:     %b\n" r.V.cycle_free;
    Printf.printf "deadlock-free:  %b\n" r.V.deadlock_free;
    (match r.V.dependency_cycle with
     | Some cycle -> print_string (Verify.render_cycle table cycle)
     | None -> ());
    let module Fi = Nue_metrics.Forwarding_index in
    Printf.printf "edge forwarding index: min %.0f avg %.1f max %.0f sd %.1f\n"
      m.Experiment.forwarding.Fi.min m.Experiment.forwarding.Fi.avg
      m.Experiment.forwarding.Fi.max m.Experiment.forwarding.Fi.sd;
    let module Ps = Nue_metrics.Pathstats in
    Printf.printf "paths: max %d hops, avg %.2f hops\n"
      m.Experiment.paths.Ps.max_hops m.Experiment.paths.Ps.avg_hops;
    let module Tm = Nue_metrics.Throughput_model in
    Printf.printf "all-to-all saturation model: %.1f GB/s aggregate\n"
      m.Experiment.throughput.Tm.aggregate_gbs;
    (table, r)
  | Ok _, None -> assert false

let json_payload built (o : Experiment.outcome) extra =
  Json.Obj
    ([ ("network", Experiment.network_to_json built.Experiment.net);
       ("outcome", Experiment.outcome_to_json o) ]
     @ extra)

(* Run a thunk, counting it when [--trace] was given and spanning it
   when [spans] is set; the counter snapshot is [None] without
   [--trace]. *)
let maybe_trace ?(spans = false) trace f =
  let views =
    (if trace then [ Experiment.Counters ] else [])
    @ if spans then [ Experiment.Spans ] else []
  in
  let r, o = Experiment.observe views f in
  (r, if trace then Some o.Experiment.counters else None)

let trace_extra = function
  | None -> []
  | Some snap -> [ ("trace", Experiment.trace_to_json snap) ]

let print_trace = function
  | None -> ()
  | Some snap ->
    print_endline "\ntrace counters (nonzero):";
    List.iter
      (fun (k, v) -> if v <> 0 then Printf.printf "  %-28s %d\n" k v)
      snap.Obs.counters;
    print_endline "trace timers:";
    List.iter
      (fun (k, (t : Obs.timer_total)) ->
         if t.Obs.activations > 0 then
           Printf.printf "  %-28s %.6f s over %d activation(s)\n" k
             t.Obs.seconds t.Obs.activations)
      snap.Obs.timers

let exit_code_of (o : Experiment.outcome) =
  match (o.Experiment.table, o.Experiment.metrics) with
  | Error _, _ -> 1
  | Ok _, Some m ->
    let module V = Nue_routing.Verify in
    if m.Experiment.verify.V.connected && m.Experiment.verify.V.deadlock_free
    then 0
    else 2
  | Ok _, None -> 0

(* {1 Common flags} *)

let topology_t =
  Arg.(value & opt string "torus"
       & info [ "topology" ] ~docv:"NAME"
           ~doc:"Topology family: torus, torusnd, mesh, hypercube, full, \
                 random, fattree, dragonfly, kautz, cascade, tsubame.")

let file_t =
  Arg.(value & opt string ""
       & info [ "file" ] ~docv:"PATH"
           ~doc:"Load the network from a file (overrides --topology).")

let dims_t =
  Arg.(value & opt (list ~sep:'x' int) [ 4; 4; 3 ]
       & info [ "dims" ] ~docv:"AxBxC"
           ~doc:"Dimensions: three for $(b,torus), any number for \
                 $(b,mesh) and $(b,torusnd).")

let terminals_t =
  Arg.(value & opt int 2
       & info [ "terminals" ] ~docv:"N" ~doc:"Terminals per switch/leaf.")

let switches_t =
  Arg.(value & opt int 32
       & info [ "switches" ] ~docv:"N"
           ~doc:"Switch count (random) or k/a/degree parameter (others).")

let links_t =
  Arg.(value & opt int 128
       & info [ "links" ] ~docv:"N" ~doc:"Inter-switch links (random).")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let algorithm_t =
  Arg.(value & opt string "nue"
       & info [ "algorithm"; "a" ] ~docv:"ALGO"
           ~doc:"A registered routing engine (see `compare'): nue, minhop, \
                 updown, sssp, dfsssp, lash, torus2qos, fattree, static-cdg.")

let vcs_t =
  Arg.(value & opt int 4
       & info [ "vcs" ] ~docv:"K" ~doc:"Available virtual channels.")

let kill_t =
  Arg.(value & opt (list int) []
       & info [ "kill-switches" ] ~docv:"IDS"
           ~doc:"Comma-separated switch ids to fail.")

let linkfail_t =
  Arg.(value & opt float 0.0
       & info [ "link-failures" ] ~docv:"FRACTION"
           ~doc:"Fraction of inter-switch links to fail randomly.")

let format_t =
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,text) (human-readable) or $(b,json) (one \
                 machine-readable object with the verify report, counters \
                 and metrics).")

let jobs_t =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Number of domains for parallel route computation. 0 (the \
                 default) leaves the pool default in place: the NUE_JOBS \
                 environment variable if set, else sequential. Routed \
                 tables, fingerprints and merged counters are \
                 byte-identical for every value.")

let set_jobs jobs = if jobs > 0 then Nue_parallel.Pool.set_default_jobs jobs

let trace_t =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Enable the instrumentation layer for this run and report \
                 its counters and timers (omega-memoization hit rate, heap \
                 op counts, per-engine wall time, ...) as a trace table \
                 (text) or a $(b,trace) object (json).")

let build_t =
  let make topology dims terminals switches links seed kill linkfail file =
    if file = "" && topology = "torus" && List.length dims <> 3 then
      `Error (true, "--dims: a torus takes three dimensions, AxBxC")
    else if kill <> [] && linkfail <> 0.0 then
      `Error (true, "--kill-switches and --link-failures cannot be combined")
    else
      `Ok
        (build_topology ~topology ~dims:(Array.of_list dims) ~terminals
           ~switches ~links ~seed ~kill_switches:kill ~link_failures:linkfail
           ~file)
  in
  Term.(ret
          (const make $ topology_t $ dims_t $ terminals_t $ switches_t
           $ links_t $ seed_t $ kill_t $ linkfail_t $ file_t))

(* {1 Subcommands} *)

let route_cmd =
  let run built algorithm vcs jobs trace format =
    set_jobs jobs;
    let o, snap =
      maybe_trace trace (fun () -> Experiment.run ~vcs ~engine:algorithm built)
    in
    match format with
    | `Json ->
      print_endline
        (Json.to_string_pretty (json_payload built o (trace_extra snap)));
      exit (exit_code_of o)
    | _ ->
      let _ = report_text built o in
      print_trace snap;
      exit (exit_code_of o)
  in
  Cmd.v (Cmd.info "route" ~doc:"Route a topology and verify the result")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ jobs_t $ trace_t
          $ format_t)

let print_telemetry (t : Sim.telemetry) =
  let module H = Nue_metrics.Histogram in
  Printf.printf
    "telemetry: %d samples every %d cycles (%d dropped)\n"
    (Array.length t.Sim.samples) t.Sim.sample_every t.Sim.dropped_samples;
  Printf.printf
    "  link utilization: peak %.3f on channel %d\n"
    t.Sim.peak_link_utilization t.Sim.peak_link;
  Printf.printf
    "  latency: p50 %.0f p95 %.0f p99 %.0f max %.0f cycles (%d packets)\n"
    (H.percentile t.Sim.latency 0.50)
    (H.percentile t.Sim.latency 0.95)
    (H.percentile t.Sim.latency 0.99)
    (H.max_value t.Sim.latency) (H.count t.Sim.latency);
  if t.Sim.deadlock_wait_cycle <> [] then begin
    Printf.printf "  deadlock wait cycle:";
    List.iter
      (fun (c, vl) -> Printf.printf " (ch %d, vl %d)" c vl)
      t.Sim.deadlock_wait_cycle;
    print_newline ()
  end

let sim_cmd =
  let run built algorithm vcs message_bytes trace telemetry_path format =
    let telemetry_on = telemetry_path <> "" in
    (* The trace window covers routing and the flit simulation, so the
       snapshot carries both the CDG/heap counters and sim.* counters.
       With --telemetry the same window is also spanned: routing spans
       are tick-stamped, the sim span is cycle-stamped. *)
    let body () =
      let o = Experiment.run ~vcs ~engine:algorithm built in
      let sim =
        match o.Experiment.table with
        | Ok table ->
          if telemetry_on then
            let out, telem =
              Experiment.simulate_with_telemetry ~message_bytes table
            in
            Some (out, Some telem)
          else Some (Experiment.simulate ~message_bytes table, None)
        | Error _ -> None
      in
      (o, sim)
    in
    let (o, sim), snap = maybe_trace ~spans:telemetry_on trace body in
    if telemetry_on then begin
      let oc = open_out telemetry_path in
      output_string oc (Nue_obs.Span.to_chrome_string ());
      close_out oc
    end;
    match (o.Experiment.table, sim, format) with
    | Error e, _, `Json ->
      print_endline
        (Json.to_string_pretty (json_payload built o (trace_extra snap)));
      ignore e;
      exit 1
    | Error e, _, _ ->
      Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
      exit 1
    | Ok _, None, _ -> assert false
    | Ok _, Some (out, telem), _ ->
      (match format with
       | `Json ->
         let telem_extra =
           match telem with
           | None -> []
           | Some t -> [ ("telemetry", Experiment.telemetry_to_json t) ]
         in
         print_endline
           (Json.to_string_pretty
              (json_payload built o
                 ([ ("sim", Experiment.sim_to_json out) ]
                  @ telem_extra @ trace_extra snap)))
       | _ ->
         let _ = report_text built o in
         Printf.printf
           "flit sim: %d/%d packets, %d cycles, deadlock=%b, %.2f GB/s, \
            avg latency %.0f cycles\n"
           out.Sim.delivered_packets out.Sim.total_packets
           out.Sim.cycles out.Sim.deadlock
           out.Sim.aggregate_gbs out.Sim.avg_packet_latency;
         (match telem with
          | None -> ()
          | Some t ->
            print_telemetry t;
            Printf.printf "wrote %s\nspan flamegraph:\n%s" telemetry_path
              (Nue_obs.Span.flamegraph ()));
         print_trace snap);
      if out.Sim.deadlock then exit 3;
      exit (exit_code_of o)
  in
  let bytes_t =
    Arg.(value & opt int 2048
         & info [ "message-bytes" ] ~docv:"B" ~doc:"All-to-all message size.")
  in
  let telemetry_t =
    Arg.(value & opt string ""
         & info [ "telemetry" ] ~docv:"PATH"
             ~doc:"Enable the span tracer and the simulator telemetry sink, \
                   and write a Chrome trace-event JSON file here (load it in \
                   Perfetto or chrome://tracing). Adds occupancy/latency/\
                   utilization summaries to the output ($(b,telemetry) \
                   object in json mode, a summary plus a span flamegraph in \
                   text mode).")
  in
  Cmd.v (Cmd.info "sim" ~doc:"Route and run a flit-level all-to-all simulation")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ bytes_t $ trace_t
          $ telemetry_t $ format_t)

let sweep_cmd =
  let run built algorithm vcs jobs workload loads message_bytes top_k
      heat_dot record replay format =
    set_jobs jobs;
    let spec =
      if replay <> "" then begin
        match Traffic.trace_of_string (read_input replay) with
        | Ok msgs -> Traffic.Trace msgs
        | Error e -> input_error (Printf.sprintf "bad trace %s: %s" replay e)
      end
      else
        match Traffic.spec_of_string workload with
        | Ok s -> s
        | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1
    in
    let loads =
      match loads with [] -> Experiment.default_sweep_loads | l -> l
    in
    match
      try
        Experiment.sweep ~vcs ~loads ~message_bytes ~workload:spec ~top_k
          ~engine:algorithm built
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    with
    | Error e ->
      Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
      exit 1
    | Ok s ->
      if record <> "" then begin
        (* The same derivation sweep used internally (stream seed + 2),
           so the recorded trace replays to an identical flow set. *)
        let traffic =
          Traffic.generate
            (Nue_structures.Prng.create (built.Experiment.seed + 2))
            spec built.Experiment.net ~message_bytes
        in
        let oc = open_out record in
        output_string oc (Traffic.trace_to_string traffic);
        close_out oc
      end;
      if heat_dot <> "" then begin
        let oc = open_out heat_dot in
        output_string oc
          (Nue_netgraph.Serialize.to_dot ~heat:s.Experiment.heat
             built.Experiment.net);
        close_out oc
      end;
      (match format with
       | `Json ->
         print_endline
           (Json.to_string_pretty
              (Json.Obj
                 [ ("network",
                    Experiment.network_to_json built.Experiment.net);
                   ("sweep", Experiment.sweep_to_json s) ]))
       | _ ->
         Printf.printf "sweep: workload=%s engine=%s message_bytes=%d\n"
           s.Experiment.sweep_workload s.Experiment.sweep_engine
           s.Experiment.sweep_message_bytes;
         Printf.printf
           "  offered  accepted      p50      p95      p99  dropped  deadlock\n";
         List.iter
           (fun (p : Experiment.sweep_point) ->
              Printf.printf "  %7.3f  %8.4f  %7.0f  %7.0f  %7.0f  %7d  %b\n"
                p.Experiment.offered_load p.Experiment.accepted_load
                p.Experiment.point_sim.Sim.latency_p50
                p.Experiment.point_sim.Sim.latency_p95
                p.Experiment.point_sim.Sim.latency_p99
                p.Experiment.point_sim.Sim.dropped_packets
                p.Experiment.point_sim.Sim.deadlock)
           s.Experiment.points;
         (match s.Experiment.sweep_knee with
          | None -> Printf.printf "knee: none detected\n"
          | Some k ->
            Printf.printf "knee: offered %.3f (%s)\n"
              k.Experiment.knee_load k.Experiment.knee_reason);
         print_string
           (Nue_sim.Congestion.render s.Experiment.congestion);
         if record <> "" then Printf.printf "recorded trace: %s\n" record;
         if heat_dot <> "" then Printf.printf "heat overlay: %s\n" heat_dot);
      if
        List.exists
          (fun (p : Experiment.sweep_point) ->
             p.Experiment.point_sim.Sim.deadlock)
          s.Experiment.points
      then exit 3;
      exit 0
  in
  let workload_t =
    Arg.(value & opt string "uniform"
         & info [ "workload" ] ~docv:"SPEC"
             ~doc:"Workload generator, optionally parameterized as \
                   $(b,name:param): shift, uniform[:msgs], bursty[:msgs], \
                   hotspot[:frac], incast[:victims], adversarial[:groups], \
                   tornado, transpose, bitcomp, bitrev, permutation.")
  in
  let loads_t =
    Arg.(value & opt (list float) []
         & info [ "loads" ] ~docv:"L1,L2,..."
             ~doc:"Offered loads (injection rates) to sweep, strictly \
                   ascending in (0, 1]. Default 0.2,0.4,0.6,0.8,1.0.")
  in
  let bytes_t =
    Arg.(value & opt int 256
         & info [ "message-bytes" ] ~docv:"B" ~doc:"Message size.")
  in
  let top_k_t =
    Arg.(value & opt int 5
         & info [ "top-k" ] ~docv:"K"
             ~doc:"Congested (channel, VL) units to attribute.")
  in
  let heat_dot_t =
    Arg.(value & opt string ""
         & info [ "heat-dot" ] ~docv:"PATH"
             ~doc:"Write a graphviz heat overlay of link utilization at the \
                   highest load point.")
  in
  let record_t =
    Arg.(value & opt string ""
         & info [ "record" ] ~docv:"PATH"
             ~doc:"Write the generated traffic as a replayable text trace.")
  in
  let replay_t =
    Arg.(value & opt string ""
         & info [ "replay" ] ~docv:"PATH"
             ~doc:"Replay a recorded traffic trace instead of generating a \
                   workload (overrides --workload).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Ramp offered load over a workload and report the saturation \
             curve, knee and congestion hotspots")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ jobs_t $ workload_t
          $ loads_t $ bytes_t $ top_k_t $ heat_dot_t $ record_t $ replay_t
          $ format_t)

let dump_cmd =
  let run built algorithm vcs switch =
    match Engine.route algorithm (Experiment.spec ~vcs built) with
    | Error e ->
      Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
      exit 1
    | Ok table ->
      let net = built.Experiment.net in
      if switch < 0 || switch >= Network.num_nodes net
         || not (Network.is_switch net switch)
      then begin
        Printf.eprintf "no such switch %d\n" switch;
        exit 1
      end;
      Printf.printf "linear forwarding table of switch %d (%s):\n" switch
        table.Table.algorithm;
      Array.iter
        (fun dest ->
           let c = Table.next table ~node:switch ~dest in
           if c >= 0 then
             Printf.printf "  dest %4d -> port to node %4d (channel %d)\n"
               dest (Network.dst net c) c)
        table.Table.dests
  in
  let switch_t =
    Arg.(value & opt int 0 & info [ "switch" ] ~docv:"ID" ~doc:"Switch id.")
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print one switch's forwarding table")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ switch_t)

let export_cmd =
  let run built out dot lft algorithm vcs overlay =
    let net = built.Experiment.net in
    if out <> "" then begin
      Nue_netgraph.Serialize.write_file out net;
      Printf.printf "wrote %s\n" out
    end;
    if dot <> "" then begin
      let rendering =
        if overlay then begin
          (* Faults rendered on the intact topology: failed elements stay
             visible (dashed red) instead of disappearing. *)
          let failed_switches, failed_links =
            Nue_netgraph.Fault.removed built.Experiment.base
              built.Experiment.remap
          in
          Nue_netgraph.Serialize.to_dot ~failed_switches ~failed_links
            built.Experiment.base
        end
        else Nue_netgraph.Serialize.to_dot net
      in
      let oc = open_out dot in
      output_string oc rendering;
      close_out oc;
      Printf.printf "wrote %s\n" dot
    end;
    if lft <> "" then begin
      match Engine.route algorithm (Experiment.spec ~vcs built) with
      | Error e ->
        Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
        exit 1
      | Ok table ->
        let oc = open_out lft in
        output_string oc (Nue_routing.Lft.dump table);
        close_out oc;
        Printf.printf "wrote %s\n" lft
    end
  in
  let out_t =
    Arg.(value & opt string ""
         & info [ "out" ] ~docv:"PATH" ~doc:"Write the network file here.")
  in
  let dot_t =
    Arg.(value & opt string ""
         & info [ "dot" ] ~docv:"PATH" ~doc:"Write a graphviz rendering here.")
  in
  let lft_t =
    Arg.(value & opt string ""
         & info [ "lft" ] ~docv:"PATH"
             ~doc:"Route and write all forwarding tables here.")
  in
  let overlay_t =
    Arg.(value & flag
         & info [ "overlay-faults" ]
             ~doc:"Render $(b,--dot) on the intact topology with the \
                   injected faults overlaid dashed-red (failed switches \
                   filled, failed links and links of failed switches \
                   faded) instead of omitting them.")
  in
  Cmd.v (Cmd.info "export" ~doc:"Write network/DOT/LFT files")
    Term.(const run $ build_t $ out_t $ dot_t $ lft_t $ algorithm_t $ vcs_t
          $ overlay_t)

(* Route with the provenance recorder on; only Nue feeds the recorder,
   so [explain]/[inspect] pin the engine rather than taking --algorithm
   (a trail for a baseline engine would always come back empty). *)
let run_with_provenance built vcs =
  let o, obs =
    Experiment.observe [ Experiment.Provenance ] (fun () ->
        Experiment.run ~vcs ~engine:"nue" built)
  in
  match (o.Experiment.table, obs.Experiment.provenance) with
  | Error e, _ ->
    Printf.eprintf "routing failed: %s\n" (Engine_error.to_string e);
    exit 1
  | Ok table, Some run -> (o, table, run)
  | Ok _, None ->
    Printf.eprintf "internal error: no provenance recorded\n";
    exit 1

let explain_cmd =
  let run built vcs src dst format =
    let _o, table, run = run_with_provenance built vcs in
    match Provenance.explain run table ~src ~dst with
    | Some e ->
      (match format with
       | `Json ->
         print_endline
           (Json.to_string_pretty (Experiment.explanation_to_json table e))
       | _ -> print_string (Provenance.explanation_to_string table e))
    | None ->
      let net = built.Experiment.net in
      let nn = Network.num_nodes net in
      if src < 0 || src >= nn || dst < 0 || dst >= nn then
        Printf.eprintf "no such pair %d -> %d (nodes are 0..%d)\n" src dst
          (nn - 1)
      else if
        not (Array.exists (fun d -> d = dst) table.Table.dests)
      then
        Printf.eprintf
          "node %d is not a routed destination (terminals are; switches \
           route traffic but receive none)\n"
          dst
      else
        Printf.eprintf "no path from %d to %d in the table\n" src dst;
      exit 1
  in
  let src_t =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"SRC" ~doc:"Source node id.")
  in
  let dst_t =
    Arg.(required & pos 1 (some int) None
         & info [] ~docv:"DST" ~doc:"Destination node id.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain one pair's path: the hop-by-hop decision trail Nue \
             recorded while routing (admitted CDG edges with the \
             condition that admitted them, rejected alternatives, \
             backtracks and escape fallbacks)")
    Term.(const run $ build_t $ vcs_t $ src_t $ dst_t $ format_t)

let inspect_cmd =
  let run built vcs layer pair dot_cdg dot_witness =
    let _o, table, run = run_with_provenance built vcs in
    let layers = run.Provenance.r_layers in
    (* The pair overlay pins the layer: a path only makes sense in the
       CDG of the virtual layer its destination was routed on. *)
    let layer, highlight =
      match pair with
      | None -> (layer, [])
      | Some (src, dst) ->
        (match Provenance.explain run table ~src ~dst with
         | None ->
           Printf.eprintf "no trail for pair %d -> %d\n" src dst;
           exit 1
         | Some e ->
           let channels =
             List.map (fun h -> h.Provenance.h_channel) e.Provenance.e_hops
           in
           (e.Provenance.e_layer, channels))
    in
    if layer < 0 || layer >= Array.length layers then begin
      Printf.eprintf "no such layer %d (run used %d layer(s))\n" layer
        (Array.length layers);
      exit 1
    end;
    let cap = layers.(layer) in
    Printf.printf "run: %s partition, seed %d, %d VC(s), %d layer(s)\n"
      run.Provenance.r_strategy run.Provenance.r_seed run.Provenance.r_vcs
      (Array.length layers);
    Array.iter
      (fun (c : Provenance.layer_capture) ->
         let used = ref 0 and blocked = ref 0 and unused = ref 0 in
         Nue_cdg.Complete_cdg.count_states c.Provenance.l_cdg ~used ~blocked
           ~unused;
         Printf.printf
           "  layer %d: escape root %d, %d pre-seeded deps, CDG edges: %d \
            used / %d blocked / %d unused, %d cycle searches\n"
           c.Provenance.l_layer c.Provenance.l_root c.Provenance.l_initial_deps
           !used !blocked !unused
           (Nue_cdg.Complete_cdg.cycle_searches c.Provenance.l_cdg))
      layers;
    if dot_cdg <> "" then begin
      let oc = open_out dot_cdg in
      output_string oc
        (Nue_cdg.Complete_cdg.to_dot ~highlight_path:highlight
           ~escape:cap.Provenance.l_escape_channels cap.Provenance.l_cdg);
      close_out oc;
      Printf.printf "wrote %s (layer %d)\n" dot_cdg layer
    end;
    if dot_witness <> "" then begin
      let report = Verify.check table in
      match report.Verify.dependency_cycle with
      | None ->
        Printf.printf
          "no dependency cycle to render (the table verifies deadlock-free)\n"
      | Some cycle ->
        let oc = open_out dot_witness in
        output_string oc (Verify.cycle_to_dot table cycle);
        close_out oc;
        print_string (Verify.render_cycle table cycle);
        Printf.printf "wrote %s\n" dot_witness
    end
  in
  let layer_t =
    Arg.(value & opt int 0
         & info [ "layer" ] ~docv:"N"
             ~doc:"Virtual layer whose CDG to render (default 0; overridden \
                   by $(b,--pair), which pins the destination's layer).")
  in
  let pair_t =
    Arg.(value & opt (some (pair ~sep:',' int int)) None
         & info [ "pair" ] ~docv:"SRC,DST"
             ~doc:"Overlay this pair's path on the CDG rendering (orange).")
  in
  let dot_cdg_t =
    Arg.(value & opt string ""
         & info [ "dot-cdg" ] ~docv:"PATH"
             ~doc:"Write the layer's complete CDG as DOT: channels as \
                   boxes labelled with their position in the kept \
                   topological order (escape channels double-bordered), \
                   dependency edges gray/dotted while unused, blue while \
                   used, red/dashed once blocked.")
  in
  let dot_witness_t =
    Arg.(value & opt string ""
         & info [ "dot-witness" ] ~docv:"PATH"
             ~doc:"Verify the table and, if a dependency cycle exists, \
                   render the witness as DOT (and its text form on \
                   stdout).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Introspect a Nue run: per-layer CDG statistics and DOT \
             renderings of the complete CDG and any deadlock witness")
    Term.(const run $ build_t $ vcs_t $ layer_t $ pair_t $ dot_cdg_t
          $ dot_witness_t)

let churn_cmd =
  let module Event = Nue_reconfig.Event in
  let module Reconfig = Nue_reconfig.Reconfig in
  let module Transition = Nue_reconfig.Transition in
  let run built algorithm vcs seed kind events interval warmup threshold
      replay record format =
    let net = built.Experiment.net in
    let stream =
      if replay <> "" then begin
        match Event.stream_of_string (read_input replay) with
        | Ok evs -> evs
        | Error msg -> input_error (Printf.sprintf "%s: %s" replay msg)
      end
      else begin
        let prng = Nue_structures.Prng.create seed in
        match kind with
        | `Random -> Event.random_churn prng net ~events
        | `Burst -> Event.burst_outage prng net ~fail:(max 1 (events / 2))
        | `Flap -> Event.flapping_link prng net ~flaps:(max 1 (events / 2))
      end
    in
    if record <> "" then begin
      let oc = open_out record in
      output_string oc (Event.stream_to_string stream);
      close_out oc;
      Printf.eprintf "wrote %s (%d events)\n" record (List.length stream)
    end;
    if stream = [] then begin
      Printf.eprintf "no events to apply (topology too small to churn?)\n";
      exit 1
    end;
    let state =
      match Reconfig.init ~engine:algorithm ~vcs ~seed net with
      | Ok s -> s
      | Error msg ->
        Printf.eprintf "initial routing failed: %s\n" msg;
        exit 1
    in
    match
      Reconfig.simulate_churn ~threshold ~interval ~warmup state stream
    with
    | Error msg ->
      Printf.eprintf "churn failed: %s\n" msg;
      exit 1
    | Ok churn ->
      (match format with
       | `Json ->
         print_endline (Json.to_string_pretty (Reconfig.churn_to_json churn))
       | _ ->
         Format.printf "%a@." Network.pp net;
         Printf.printf "churn: %d events, engine %s, %d VCs, seed %d\n"
           (List.length churn.Reconfig.steps) algorithm vcs seed;
         List.iteri
           (fun i (s : Reconfig.step) ->
              Printf.printf
                "  %2d  %-14s affected %3d (%5.1f%%)  %-11s %-6s %.1f ms\n" i
                (Event.to_string s.Reconfig.event)
                (Array.length s.Reconfig.affected)
                (100.0 *. s.Reconfig.affected_fraction)
                (match s.Reconfig.kind with
                 | Reconfig.Incremental -> "incremental"
                 | Reconfig.Full -> "full")
                (match s.Reconfig.verdict with
                 | Transition.Safe -> "safe"
                 | Transition.Unsafe _ -> "staged")
                (1000.0 *. s.Reconfig.seconds);
              match s.Reconfig.verdict with
              | Transition.Unsafe { rendered; drain; _ } ->
                print_string rendered;
                Printf.printf "      staged drain of %d destination(s)\n"
                  (Array.length drain)
              | Transition.Safe -> ())
           churn.Reconfig.steps;
         let o = churn.Reconfig.outcome in
         Printf.printf
           "flit sim: %d/%d packets, %d cycles, deadlock=%b, %.2f GB/s, \
            avg latency %.0f cycles\n"
           o.Sim.delivered_packets o.Sim.total_packets o.Sim.cycles
           o.Sim.deadlock o.Sim.aggregate_gbs o.Sim.avg_packet_latency;
         List.iteri
           (fun i (r : Sim.swap_record) ->
              Printf.printf
                "  swap %2d: requested @%d, active @%d, %d pkts / %d flits \
                 in flight, drained @%d\n"
                i r.Sim.swap_at r.Sim.activated_at r.Sim.in_flight_packets
                r.Sim.in_flight_flits r.Sim.drained_at)
           churn.Reconfig.swap_records;
         Printf.printf "planning: %.3f s total (%.0f events/s)\n"
           churn.Reconfig.plan_seconds
           (if churn.Reconfig.plan_seconds > 0.0 then
              float_of_int (List.length churn.Reconfig.steps)
              /. churn.Reconfig.plan_seconds
            else 0.0));
      if churn.Reconfig.outcome.Sim.deadlock then exit 3
  in
  let kind_t =
    Arg.(value
         & opt (enum [ ("random", `Random); ("burst", `Burst); ("flap", `Flap) ])
             `Random
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Generated stream shape: $(b,random) alternating churn, \
                   $(b,burst) outage-and-recovery, $(b,flap) one flapping \
                   link.")
  in
  let events_t =
    Arg.(value & opt int 20
         & info [ "events" ] ~docv:"N"
             ~doc:"Events to generate (burst fails N/2 links; flap flaps \
                   N/2 times).")
  in
  let interval_t =
    Arg.(value & opt int 2000
         & info [ "interval" ] ~docv:"CYCLES"
             ~doc:"Simulated cycles between table swaps.")
  in
  let warmup_t =
    Arg.(value & opt int 1000
         & info [ "warmup" ] ~docv:"CYCLES"
             ~doc:"Simulated cycles before the first swap.")
  in
  let threshold_t =
    Arg.(value & opt float 0.5
         & info [ "threshold" ] ~docv:"FRACTION"
             ~doc:"Affected-destination fraction above which the planner \
                   reroutes the whole table instead of incrementally.")
  in
  let replay_t =
    Arg.(value & opt string ""
         & info [ "replay" ] ~docv:"PATH"
             ~doc:"Replay a recorded event stream instead of generating \
                   one (one `fail U V' / `repair U V' per line).")
  in
  let record_t =
    Arg.(value & opt string ""
         & info [ "record" ] ~docv:"PATH"
             ~doc:"Write the generated event stream here for later \
                   $(b,--replay).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Drive a live fault/repair event stream: incremental \
             rerouting, union-CDG transition verification and mid-run \
             table swaps in the flit simulator")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ seed_t $ kind_t
          $ events_t $ interval_t $ warmup_t $ threshold_t $ replay_t
          $ record_t $ format_t)

let compare_cmd =
  let run built vcs jobs trace =
    Format.printf "%a@.@." Network.pp built.Experiment.net;
    set_jobs jobs;
    let outcomes, snap =
      maybe_trace trace (fun () -> Experiment.run_all ~vcs built)
    in
    Printf.printf "%-11s %-9s %-10s %-10s %-9s %-12s %-8s\n" "routing"
      "VLs" "gamma_max" "max_hops" "avg_hops" "model GB/s" "time s";
    List.iter
      (fun (o : Experiment.outcome) ->
         match (o.Experiment.table, o.Experiment.metrics) with
         | Error (Engine_error.Topology_mismatch _), _ ->
           () (* silently skip engine/topology mismatches, as the paper does *)
         | Error e, _ ->
           Printf.printf "%-11s (%s)\n" o.Experiment.engine
             (Engine_error.to_string e)
         | Ok _, Some m ->
           let module V = Nue_routing.Verify in
           let module Fi = Nue_metrics.Forwarding_index in
           let module Ps = Nue_metrics.Pathstats in
           let module Tm = Nue_metrics.Throughput_model in
           let validity =
             if m.Experiment.verify.V.connected
                && m.Experiment.verify.V.deadlock_free
             then ""
             else "  INVALID!"
           in
           Printf.printf "%-11s %-9d %-10.0f %-10d %-9.2f %-12.1f %-8.2f%s\n"
             o.Experiment.engine m.Experiment.vls_used
             m.Experiment.forwarding.Fi.max m.Experiment.paths.Ps.max_hops
             m.Experiment.paths.Ps.avg_hops
             m.Experiment.throughput.Tm.aggregate_gbs o.Experiment.seconds
             validity
         | Ok _, None -> ())
      outcomes;
    print_trace snap
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every registered routing engine and compare quality")
    Term.(const run $ build_t $ vcs_t $ jobs_t $ trace_t)

let profile_cmd =
  let module P = Nue_obs.Profile in
  let run built algorithm vcs jobs timelines format =
    set_jobs jobs;
    let o, obs =
      Experiment.observe [ Experiment.Alloc ] (fun () ->
          Experiment.run ~vcs ~engine:algorithm built)
    in
    let prof = obs.Experiment.profile in
    match format with
    | `Json ->
      print_endline
        (Json.to_string_pretty
           (json_payload built o
              [ ("profile", Experiment.profile_to_json prof) ]));
      exit (exit_code_of o)
    | _ ->
      Printf.printf "engine: %s\n" algorithm;
      Printf.printf "window: %.4f s wall\n" prof.P.p_wall_seconds;
      Printf.printf "  serial (outside pool regions): %.4f s\n"
        prof.P.p_serial_seconds;
      Printf.printf "  pool regions: %.4f s wall, %.4f s busy across %s\n"
        prof.P.p_pool_wall_seconds prof.P.p_parallel_busy_seconds
        (if prof.P.p_max_jobs > 0 then
           Printf.sprintf "up to %d domain(s)" prof.P.p_max_jobs
         else "no domains");
      Printf.printf "measured Amdahl serial fraction: %.4f" prof.P.p_serial_fraction;
      if prof.P.p_serial_fraction > 0. then
        Printf.printf " (max speedup %.1fx; %.2fx predicted at %d jobs)\n"
          (1. /. prof.P.p_serial_fraction)
          (P.amdahl_speedup prof ~jobs:(max 1 prof.P.p_max_jobs))
          (max 1 prof.P.p_max_jobs)
      else print_newline ();
      Printf.printf "pool utilization: %.1f%%\n" (100. *. prof.P.p_utilization);
      if prof.P.p_committed + prof.P.p_live > 0 then
        Printf.printf
          "speculation: %d committed, %d misspeculated, %d routed live over \
           %d round(s)\n"
          prof.P.p_committed prof.P.p_misspeculated prof.P.p_live
          (List.length prof.P.p_rounds + prof.P.p_rounds_dropped);
      (* Pool regions, aggregated by label. *)
      let tbl = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun (r : P.pool_region) ->
           let wall = Float.max 0. (r.P.pr_t1 -. r.P.pr_t0) in
           let busy =
             Array.fold_left
               (fun a w -> a +. w.P.ws_busy_seconds) 0. r.P.pr_workers
           in
           let chunks =
             Array.fold_left (fun a w -> a + w.P.ws_chunks) 0 r.P.pr_workers
           in
           match Hashtbl.find_opt tbl r.P.pr_label with
           | None ->
             order := r.P.pr_label :: !order;
             Hashtbl.add tbl r.P.pr_label
               (ref 1, ref wall, ref busy, ref chunks, ref r.P.pr_jobs)
           | Some (n, w, b, c, j) ->
             incr n;
             w := !w +. wall;
             b := !b +. busy;
             c := !c + chunks;
             j := max !j r.P.pr_jobs)
        prof.P.p_regions;
      if !order <> [] then begin
        Printf.printf "\n%-18s %8s %6s %10s %10s %8s %7s\n" "pool region"
          "regions" "jobs" "wall(s)" "busy(s)" "chunks" "util";
        List.iter
          (fun label ->
             let n, w, b, c, j = Hashtbl.find tbl label in
             let util =
               if !w > 0. && !j > 0 then
                 100. *. !b /. (!w *. float_of_int !j)
               else 0.
             in
             Printf.printf "%-18s %8d %6d %10.4f %10.4f %8d %6.1f%%\n" label
               !n !j !w !b !c util)
          (List.rev !order)
      end;
      if timelines > 0 then begin
        (* The per-worker busy bars of the longest regions. *)
        let top =
          List.sort
            (fun (a : P.pool_region) (b : P.pool_region) ->
               compare (b.P.pr_t1 -. b.P.pr_t0) (a.P.pr_t1 -. a.P.pr_t0))
            prof.P.p_regions
        in
        let rec take k = function
          | x :: tl when k > 0 -> x :: take (k - 1) tl
          | _ -> []
        in
        let top = take timelines top in
        if top <> [] then begin
          print_newline ();
          print_string (P.timeline { prof with P.p_regions = top })
        end
      end;
      print_newline ();
      print_string (P.alloc_flamegraph prof);
      exit (exit_code_of o)
  in
  let timelines_t =
    Arg.(value & opt int 3
         & info [ "timelines" ] ~docv:"N"
             ~doc:"Print per-worker busy/idle bars for the $(docv) \
                   longest-running pool regions (0 disables).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Route with resource profiling: per-phase GC/alloc attribution, \
             pool utilization timelines and the measured Amdahl serial \
             fraction")
    Term.(const run $ build_t $ algorithm_t $ vcs_t $ jobs_t $ timelines_t
          $ format_t)

let () =
  let info =
    Cmd.info "nue_route" ~version:"1.0.0"
      ~doc:"Deadlock-free routing on the complete channel dependency graph"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ route_cmd; sim_cmd; sweep_cmd; dump_cmd; export_cmd; compare_cmd;
            explain_cmd; inspect_cmd; churn_cmd; profile_cmd ]))
