module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Serialize = Nue_netgraph.Serialize
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Fi = Nue_metrics.Forwarding_index
module Ps = Nue_metrics.Pathstats
module Tm = Nue_metrics.Throughput_model
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Congestion = Nue_sim.Congestion
module Prng = Nue_structures.Prng
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
module Profile = Nue_obs.Profile
module Recorder = Nue_obs.Recorder
module Provenance = Nue_core.Provenance

(* Linking the pipeline must yield the complete registry: the baselines
   register from Nue_routing.Engine's own init, Nue from here. *)
let () = Nue_core.Nue_engine.ensure_registered ()

(* Nue_obs itself is dependency-free and defaults to [Sys.time]; the
   pipeline has [unix], so give every linked driver a real wall clock. *)
let () = Obs.set_clock Unix.gettimeofday

let c_runs = Obs.counter "pipeline.runs"
let c_paths = Obs.counter "pipeline.paths_computed"
let c_vls = Obs.counter "pipeline.vls_used"

type prebuilt = {
  pnet : Network.t;
  ptorus : Topology.torus option;
  ptree : (int * int) option;
}

type topology =
  | Torus3d of { dims : int * int * int; terminals : int; redundancy : int }
  | Mesh of { dims : int array; terminals : int }
  | Torus_nd of { dims : int array; terminals : int }
  | Hypercube of { dim : int; terminals : int }
  | Fully_connected of { switches : int; terminals : int }
  | Random of { switches : int; links : int; terminals : int }
  | Kary_ntree of { k : int; n : int; terminals : int }
  | Dragonfly of { a : int; p : int; h : int; g : int }
  | Kautz of { degree : int; diameter : int; terminals : int;
               redundancy : int }
  | Cascade
  | Tsubame25
  | From_file of string
  | Prebuilt of prebuilt

let prebuilt ?torus ?tree net = Prebuilt { pnet = net; ptorus = torus; ptree = tree }

type faults =
  | No_faults
  | Kill_switches of int list
  | Cut_links of (int * int) list
  | Link_failures of float

type setup = { topology : topology; faults : faults; seed : int }

let setup ?(faults = No_faults) ?(seed = 1) topology =
  { topology; faults; seed }

type built = {
  base : Network.t;
  net : Network.t;
  remap : Fault.remap;
  torus : Topology.torus option;
  tree : (int * int) option;
  seed : int;
}

let build { topology; faults; seed } =
  Span.with_ "pipeline.build" ~args:[ ("seed", Span.Int seed) ] @@ fun () ->
  let base_net, torus, tree =
    match topology with
    | Torus3d { dims; terminals; redundancy } ->
      let t =
        Topology.torus3d ~dims ~terminals_per_switch:terminals ~redundancy ()
      in
      (t.Topology.net, Some t, None)
    | Mesh { dims; terminals } ->
      ((Topology.mesh ~dims ~terminals_per_switch:terminals ()).Topology.gnet,
       None, None)
    | Torus_nd { dims; terminals } ->
      ((Topology.torus_nd ~dims ~terminals_per_switch:terminals ())
         .Topology.gnet,
       None, None)
    | Hypercube { dim; terminals } ->
      (Topology.hypercube ~dim ~terminals_per_switch:terminals (), None, None)
    | Fully_connected { switches; terminals } ->
      (Topology.fully_connected ~switches ~terminals_per_switch:terminals (),
       None, None)
    | Random { switches; links; terminals } ->
      (Topology.random (Prng.create seed) ~switches ~inter_switch_links:links
         ~terminals_per_switch:terminals (),
       None, None)
    | Kary_ntree { k; n; terminals } ->
      (Topology.kary_ntree ~k ~n ~terminals_per_leaf:terminals (), None,
       Some (k, n))
    | Dragonfly { a; p; h; g } -> (Topology.dragonfly ~a ~p ~h ~g (), None, None)
    | Kautz { degree; diameter; terminals; redundancy } ->
      (Topology.kautz ~degree ~diameter ~terminals_per_switch:terminals
         ~redundancy (),
       None, None)
    | Cascade -> (Topology.cascade (), None, None)
    | Tsubame25 -> (Topology.tsubame25 (), None, None)
    | From_file path -> (Serialize.read_file path, None, None)
    | Prebuilt { pnet; ptorus; ptree } -> (pnet, ptorus, ptree)
  in
  let remap =
    match faults with
    | No_faults -> Fault.identity base_net
    | Kill_switches ids -> Fault.remove_switches base_net ids
    | Cut_links pairs -> Fault.remove_links base_net pairs
    | Link_failures fraction ->
      (* Stream [seed + 1], the one derivation every driver shares. *)
      Fault.random_link_failures (Prng.create (seed + 1)) base_net ~fraction
  in
  { base = base_net; net = remap.Fault.net; remap; torus; tree; seed }

let spec ?vcs ?dests ?sources b =
  Engine.spec ?vcs ~seed:b.seed ?dests ?sources ?torus:b.torus
    ~remap:b.remap ?tree:b.tree b.net

(* {1 Running} *)

type metrics = {
  verify : Verify.report;
  vls_used : int;
  forwarding : Fi.summary;
  paths : Ps.t;
  throughput : Tm.t;
}

type outcome = {
  engine : string;
  vcs : int;
  seconds : float;
  table : (Table.t, Engine_error.t) result;
  metrics : metrics option;
}

let measure table =
  Span.with_ "pipeline.measure" @@ fun () ->
  let verify, stats = Verify.measure table in
  { verify;
    vls_used = Verify.vls_used table;
    forwarding = Fi.of_loads table.Table.net stats.Verify.loads;
    paths = Ps.of_stats stats;
    throughput = Tm.of_loads table stats.Verify.loads }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run ?(vcs = 8) ?dests ?sources ?jobs ~engine b =
  (match jobs with
   | Some j -> Nue_parallel.Pool.set_default_jobs j
   | None -> ());
  let s = spec ~vcs ?dests ?sources b in
  let table, seconds =
    time (fun () ->
        Span.with_ "pipeline.route" ~args:[ ("engine", Span.Str engine) ]
          (fun () -> Engine.route engine s))
  in
  let metrics = match table with Ok t -> Some (measure t) | Error _ -> None in
  Obs.incr c_runs;
  (match metrics with
   | Some m ->
     Obs.add c_paths m.paths.Ps.pairs;
     Obs.add c_vls m.vls_used
   | None -> ());
  { engine; vcs; seconds; table; metrics }

let run_all ?vcs ?jobs b =
  List.map
    (fun (module E : Engine.ENGINE) -> run ?vcs ?jobs ~engine:E.name b)
    (Engine.all ())

let simulate ?config ~message_bytes table =
  Span.with_ "pipeline.sim" ~args:[ ("message_bytes", Span.Int message_bytes) ]
  @@ fun () ->
  let traffic =
    Traffic.all_to_all_shift table.Table.net ~message_bytes
  in
  Sim.run ?config table ~traffic

let simulate_with_telemetry ?config ?telemetry ~message_bytes table =
  Span.with_ "pipeline.sim" ~args:[ ("message_bytes", Span.Int message_bytes) ]
  @@ fun () ->
  let traffic =
    Traffic.all_to_all_shift table.Table.net ~message_bytes
  in
  Sim.run_with_telemetry ?config ?telemetry table ~traffic

(* {1 JSON rendering} *)

let verify_to_json (r : Verify.report) =
  Json.Obj
    [ ("connected", Json.Bool r.Verify.connected);
      ("cycle_free", Json.Bool r.Verify.cycle_free);
      ("deadlock_free", Json.Bool r.Verify.deadlock_free);
      ("unreachable_pairs", Json.Int r.Verify.unreachable_pairs) ]

let metrics_to_json m =
  Json.Obj
    [ ("verify", verify_to_json m.verify);
      ("vls_used", Json.Int m.vls_used);
      ("edge_forwarding_index",
       Json.Obj
         [ ("min", Json.Float m.forwarding.Fi.min);
           ("avg", Json.Float m.forwarding.Fi.avg);
           ("max", Json.Float m.forwarding.Fi.max);
           ("sd", Json.Float m.forwarding.Fi.sd) ]);
      ("paths",
       Json.Obj
         [ ("max_hops", Json.Int m.paths.Ps.max_hops);
           ("avg_hops", Json.Float m.paths.Ps.avg_hops);
           ("pairs", Json.Int m.paths.Ps.pairs);
           ("unreachable", Json.Int m.paths.Ps.unreachable) ]);
      ("throughput_model",
       Json.Obj
         [ ("aggregate_gbs", Json.Float m.throughput.Tm.aggregate_gbs);
           ("per_terminal_gbs", Json.Float m.throughput.Tm.per_terminal_gbs);
           ("gamma_max", Json.Float m.throughput.Tm.gamma_max);
           ("bottleneck_channel",
            Json.Int m.throughput.Tm.bottleneck_channel) ]) ]

let network_to_json net =
  Json.Obj
    [ ("name", Json.Str (Network.name net));
      ("switches", Json.Int (Network.num_switches net));
      ("terminals", Json.Int (Network.num_terminals net));
      ("inter_switch_channels",
       Json.Int ((Network.num_channels net / 2) - Network.num_terminals net))
    ]

let error_to_json (e : Engine_error.t) =
  let extra =
    match e with
    | Engine_error.Vc_budget_exceeded { needed; available } ->
      [ ("needed", Json.Int needed); ("available", Json.Int available) ]
    | _ -> []
  in
  Json.Obj
    ([ ("kind", Json.Str (Engine_error.kind e));
       ("message", Json.Str (Engine_error.to_string e)) ]
     @ extra)

let outcome_to_json o =
  let base =
    [ ("engine", Json.Str o.engine); ("vcs", Json.Int o.vcs);
      ("seconds", Json.Float o.seconds) ]
  in
  match (o.table, o.metrics) with
  | Ok table, Some m ->
    Json.Obj
      (base
       @ [ ("applicable", Json.Bool true);
           ("algorithm", Json.Str table.Table.algorithm);
           ("destinations", Json.Int (Array.length table.Table.dests));
           ("num_vls", Json.Int table.Table.num_vls);
           ("counters",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Float v)) table.Table.info));
           ("metrics", metrics_to_json m) ])
  | Error e, _ ->
    Json.Obj (base @ [ ("applicable", Json.Bool false); ("error", error_to_json e) ])
  | Ok _, None ->
    Json.Obj (base @ [ ("applicable", Json.Bool true) ])

(* A trace snapshot rendered for [--trace] and BENCH_nue.json. The key
   order is the snapshot's (sorted by name), so the rendering is stable
   no matter in which order counters were registered or bumped. *)
let trace_to_json (s : Obs.snapshot) =
  (* Sort defensively: [Obs.snapshot] emits sorted lists, but the record
     is transparent, and the rendering must not depend on key order. *)
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let s = { Obs.counters = sort s.Obs.counters; timers = sort s.Obs.timers } in
  let c = Obs.find s in
  let ratio num den =
    if den = 0 then Json.Null else Json.Float (float_of_int num /. float_of_int den)
  in
  let memo_hits = c "cdg.memo.hit_blocked" + c "cdg.memo.hit_used" in
  let heap_ops = c "heap.inserts" + c "heap.extracts" in
  Json.Obj
    [ ("counters",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.Obs.counters));
      ("timers",
       Json.Obj
         (List.map
            (fun (k, (t : Obs.timer_total)) ->
               (k,
                Json.Obj
                  [ ("seconds", Json.Float t.Obs.seconds);
                    ("activations", Json.Int t.Obs.activations) ]))
            s.Obs.timers));
      ("derived",
       Json.Obj
         [ ("omega_memo_hit_rate", ratio memo_hits (c "cdg.usable_calls"));
           ("cdg_search_rate",
            ratio (c "cdg.memo.miss_search") (c "cdg.usable_calls"));
           ("cdg_accept_rate",
            ratio (c "cdg.edges_accepted")
              (c "cdg.edges_accepted" + c "cdg.edges_rejected"));
           ("cdg_reorder_rate",
            ratio (c "cdg.reorders") (c "cdg.memo.miss_search"));
           ("heap_ops", Json.Int heap_ops) ]) ]

let sim_to_json (o : Sim.outcome) =
  Json.Obj
    [ ("delivered_packets", Json.Int o.Sim.delivered_packets);
      ("total_packets", Json.Int o.Sim.total_packets);
      ("delivered_bytes", Json.Int o.Sim.delivered_bytes);
      ("dropped_packets", Json.Int o.Sim.dropped_packets);
      ("cycles", Json.Int o.Sim.cycles);
      ("deadlock", Json.Bool o.Sim.deadlock);
      ("aggregate_gbs", Json.Float o.Sim.aggregate_gbs);
      ("avg_packet_latency", Json.Float o.Sim.avg_packet_latency);
      ("latency_p50", Json.Float o.Sim.latency_p50);
      ("latency_p95", Json.Float o.Sim.latency_p95);
      ("latency_p99", Json.Float o.Sim.latency_p99);
      ("latency_max", Json.Float o.Sim.latency_max) ]

(* {1 Telemetry and span rendering} *)

let telemetry_to_json (t : Sim.telemetry) =
  let module H = Nue_metrics.Histogram in
  let mean_util =
    let n = Array.length t.Sim.link_utilization in
    if n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 t.Sim.link_utilization /. float_of_int n
  in
  let sample_to_json (s : Sim.sample) =
    Json.Obj
      [ ("cycle", Json.Int s.Sim.at_cycle);
        ("buffered_flits",
         Json.Int (Array.fold_left ( + ) 0 s.Sim.vl_occupancy));
        ("peak_link_occupancy",
         Json.Int (Array.fold_left max 0 s.Sim.link_occupancy));
        ("vl_occupancy",
         Json.List
           (Array.to_list (Array.map (fun v -> Json.Int v) s.Sim.vl_occupancy)))
      ]
  in
  Json.Obj
    [ ("sample_every", Json.Int t.Sim.sample_every);
      ("samples",
       Json.List (Array.to_list (Array.map sample_to_json t.Sim.samples)));
      ("dropped_samples", Json.Int t.Sim.dropped_samples);
      ("link_utilization",
       Json.Obj
         [ ("peak", Json.Float t.Sim.peak_link_utilization);
           ("peak_link", Json.Int t.Sim.peak_link);
           ("mean", Json.Float mean_util) ]);
      ("latency",
       Json.Obj
         [ ("count", Json.Int (H.count t.Sim.latency));
           ("mean", Json.Float (H.mean t.Sim.latency));
           ("p50", Json.Float (H.percentile t.Sim.latency 0.50));
           ("p95", Json.Float (H.percentile t.Sim.latency 0.95));
           ("p99", Json.Float (H.percentile t.Sim.latency 0.99));
           ("max", Json.Float (H.max_value t.Sim.latency)) ]);
      ("deadlock_wait_cycle",
       Json.List
         (List.map
            (fun (c, vl) ->
               Json.Obj [ ("channel", Json.Int c); ("vl", Json.Int vl) ])
            t.Sim.deadlock_wait_cycle)) ]

(* {1 Saturation sweeps} *)

type sweep_point = {
  offered_load : float;
  accepted_load : float;
  point_sim : Sim.outcome;
  point_telemetry : Sim.telemetry;
}

type knee = {
  knee_load : float;
  knee_reason : string;
}

type sweep = {
  sweep_workload : string;
  sweep_engine : string;
  sweep_message_bytes : int;
  points : sweep_point list;
  sweep_knee : knee option;
  congestion : Congestion.report;
  heat : float array;
}

let default_sweep_loads = [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

let default_sweep_telemetry =
  { Sim.sample_every = 16; max_samples = 512; latency_bins = 32 }

(* The knee is the first load point where accepted throughput stops
   tracking offered load (marginal slope below half the initial slope),
   latency blows past 3x its lowest-load p99, or the fabric deadlocks —
   whichever fires first walking up the curve. *)
let detect_knee points =
  match points with
  | [] | [ _ ] -> None
  | p0 :: _ ->
    let slope0 = p0.accepted_load /. p0.offered_load in
    let p99_0 = p0.point_sim.Sim.latency_p99 in
    let rec walk prev = function
      | [] -> None
      | p :: rest ->
        if p.point_sim.Sim.deadlock then
          Some { knee_load = p.offered_load; knee_reason = "deadlock" }
        else begin
          let slope =
            (p.accepted_load -. prev.accepted_load)
            /. (p.offered_load -. prev.offered_load)
          in
          if slope < 0.5 *. slope0 then
            Some
              { knee_load = p.offered_load;
                knee_reason = "throughput_plateau" }
          else if p99_0 > 0.0 && p.point_sim.Sim.latency_p99 > 3.0 *. p99_0
          then
            Some { knee_load = p.offered_load; knee_reason = "latency_blowup" }
          else walk p rest
        end
    in
    walk p0 (List.tl points)

let sweep ?vcs ?jobs ?(config = Sim.default_config)
    ?(telemetry = default_sweep_telemetry) ?(loads = default_sweep_loads)
    ?(message_bytes = 256) ?(workload = Traffic.Uniform { messages_per_terminal = 4 })
    ?top_k ~engine b =
  if loads = [] then invalid_arg "Experiment.sweep: loads must be non-empty";
  List.iter
    (fun l ->
       if not (l > 0.0 && l <= 1.0) then
         invalid_arg "Experiment.sweep: loads must be in (0, 1]")
    loads;
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      if not (a < b) then
        invalid_arg "Experiment.sweep: loads must be strictly ascending"
      else ascending rest
    | _ -> ()
  in
  ascending loads;
  let outcome = run ?vcs ?jobs ~engine b in
  match outcome.table with
  | Error e -> Error e
  | Ok table ->
    (* Traffic draws from stream [seed + 2], extending the pipeline's
       one-PRNG derivation (topology: seed, faults: seed + 1). *)
    let traffic =
      Traffic.generate
        (Prng.create (b.seed + 2))
        workload table.Table.net ~message_bytes
    in
    let nterm = max 1 (Network.num_terminals table.Table.net) in
    Span.with_ "pipeline.sweep"
      ~args:
        [ ("engine", Span.Str engine);
          ("workload", Span.Str (Traffic.spec_name workload));
          ("points", Span.Int (List.length loads)) ]
    @@ fun () ->
    let points =
      List.map
        (fun load ->
           let o, t =
             Sim.run_with_telemetry
               ~config:{ config with Sim.injection_rate = load }
               ~telemetry table ~traffic
           in
           let accepted_load =
             float_of_int o.Sim.delivered_bytes
             /. float_of_int config.Sim.flit_bytes
             /. float_of_int o.Sim.cycles /. float_of_int nterm
           in
           { offered_load = load; accepted_load; point_sim = o;
             point_telemetry = t })
        loads
    in
    (* Congestion is attributed at the highest load point, where the
       hotspots are sharpest. *)
    let last = List.nth points (List.length points - 1) in
    let congestion =
      Congestion.attribute ?top_k ~traffic table last.point_telemetry
    in
    Ok
      { sweep_workload = Traffic.spec_name workload;
        sweep_engine = engine;
        sweep_message_bytes = message_bytes;
        points;
        sweep_knee = detect_knee points;
        congestion;
        heat = Congestion.link_heat last.point_telemetry table.Table.net }

let congestion_to_json (r : Congestion.report) =
  let flow_json (s, d) =
    Json.Obj [ ("src", Json.Int s); ("dst", Json.Int d) ]
  in
  let hotspot_json (h : Congestion.hotspot) =
    Json.Obj
      [ ("channel", Json.Int h.Congestion.stat.Congestion.channel);
        ("vl", Json.Int h.Congestion.stat.Congestion.vl);
        ("mean_occupancy",
         Json.Float h.Congestion.stat.Congestion.mean_occupancy);
        ("peak_occupancy",
         Json.Int h.Congestion.stat.Congestion.peak_occupancy);
        ("utilization", Json.Float h.Congestion.stat.Congestion.utilization);
        ("flows", Json.List (List.map flow_json h.Congestion.flows)) ]
  in
  let window_json (w : Congestion.window) =
    Json.Obj
      [ ("from_cycle", Json.Int w.Congestion.from_cycle);
        ("to_cycle", Json.Int w.Congestion.to_cycle);
        ("mean_buffered", Json.Float w.Congestion.mean_buffered);
        ("peak_link_occupancy", Json.Int w.Congestion.peak_link_occupancy);
        ("occupancy_p95",
         Json.Float
           (let h = w.Congestion.occupancy in
            if Nue_metrics.Histogram.count h = 0 then 0.0
            else Nue_metrics.Histogram.percentile h 0.95)) ]
  in
  Json.Obj
    [ ("total_flows", Json.Int r.Congestion.total_flows);
      ("hotspots", Json.List (List.map hotspot_json r.Congestion.hotspots));
      ("windows", Json.List (List.map window_json r.Congestion.windows)) ]

(* Sweep JSON carries no wall-clock values, so two same-seed runs render
   byte-identically (the acceptance bar for the sweep harness). *)
let sweep_to_json s =
  let point_json p =
    Json.Obj
      [ ("offered_load", Json.Float p.offered_load);
        ("accepted_load", Json.Float p.accepted_load);
        ("delivered_packets", Json.Int p.point_sim.Sim.delivered_packets);
        ("dropped_packets", Json.Int p.point_sim.Sim.dropped_packets);
        ("cycles", Json.Int p.point_sim.Sim.cycles);
        ("deadlock", Json.Bool p.point_sim.Sim.deadlock);
        ("latency_p50", Json.Float p.point_sim.Sim.latency_p50);
        ("latency_p95", Json.Float p.point_sim.Sim.latency_p95);
        ("latency_p99", Json.Float p.point_sim.Sim.latency_p99);
        ("avg_packet_latency",
         Json.Float p.point_sim.Sim.avg_packet_latency) ]
  in
  Json.Obj
    [ ("workload", Json.Str s.sweep_workload);
      ("engine", Json.Str s.sweep_engine);
      ("message_bytes", Json.Int s.sweep_message_bytes);
      ("points", Json.List (List.map point_json s.points));
      ("knee",
       (match s.sweep_knee with
        | None -> Json.Null
        | Some k ->
          Json.Obj
            [ ("offered_load", Json.Float k.knee_load);
              ("reason", Json.Str k.knee_reason) ]));
      ("congestion", congestion_to_json s.congestion) ]

(* {1 Provenance} *)

let check_to_json net (c : Provenance.check) =
  let open Json in
  let base =
    [ ("channel", Int c.Provenance.chk_channel);
      ("onto",
       if c.Provenance.chk_onto < 0 then Null else Int c.Provenance.chk_onto);
      ("toward", Int (Network.dst net c.Provenance.chk_channel));
      ("ok", Bool (Provenance.check_ok c)) ]
  in
  let detail =
    match c.Provenance.chk_subject with
    | Provenance.Into_destination -> [ ("kind", Str "into-destination") ]
    | Provenance.No_edge -> [ ("kind", Str "no-cdg-edge") ]
    | Provenance.Cdg_edge v ->
      [ ("kind", Str "cdg-edge");
        ("verdict", Str (Nue_cdg.Complete_cdg.verdict_to_string v));
        ("condition",
         Str (String.make 1 (Nue_cdg.Complete_cdg.verdict_condition v)));
        ("state_before", Int c.Provenance.chk_state_before) ]
  in
  Obj (base @ detail)

let explanation_to_json (table : Table.t) (e : Provenance.explanation) =
  let open Json in
  let net = table.Table.net in
  let hop_to_json (h : Provenance.hop) =
    Obj
      [ ("node", Int h.Provenance.h_node);
        ("channel", Int h.Provenance.h_channel);
        ("to", Int (Network.dst net h.Provenance.h_channel));
        ("vl", Int h.Provenance.h_vl);
        ("via", Str (Provenance.via_to_string h.Provenance.h_via));
        ("dist",
         match h.Provenance.h_dist with Some d -> Float d | None -> Null);
        ("admitted",
         match h.Provenance.h_accepted with
         | Some c -> check_to_json net c
         | None ->
           if h.Provenance.h_via = Provenance.Escape then
             Str "escape-tree dependency"
           else Str "into-destination");
        ("rejected",
         List
           (List.map
              (fun (c, times) ->
                 match check_to_json net c with
                 | Obj fields -> Obj (fields @ [ ("retries", Int times) ])
                 | j -> j)
              h.Provenance.h_rejected)) ]
  in
  Obj
    [ ("src", Int e.Provenance.e_src);
      ("dst", Int e.Provenance.e_dst);
      ("layer", Int e.Provenance.e_layer);
      ("escape_root", Int e.Provenance.e_root);
      ("strategy", Str e.Provenance.e_strategy);
      ("seed", Int e.Provenance.e_seed);
      ("vcs", Int e.Provenance.e_vcs);
      ("escape_fallback", Bool e.Provenance.e_escape_fallback);
      ("backtracks", Int e.Provenance.e_backtracks);
      ("impasses", Int e.Provenance.e_impasses);
      ("hops", List (List.map hop_to_json e.Provenance.e_hops)) ]

(* {1 Observation} *)

type view = Counters | Spans | Alloc | Provenance

type observation = {
  counters : Obs.snapshot;
  profile : Profile.report;
  provenance : Provenance.run option;
}

let observe views f =
  let want v = List.mem v views in
  let saved = Atomic.get Recorder.views and prov_was = Provenance.enabled () in
  let bit v b = if want v then b else 0 in
  Obs.reset ();
  Profile.reset ();
  ignore (Provenance.capture ());
  Atomic.set Recorder.views
    (bit Counters Recorder.counters lor bit Spans Recorder.spans
     lor bit Alloc Recorder.alloc);
  if want Provenance then Provenance.enable () else Provenance.disable ();
  let finish () =
    let o =
      { counters = Obs.snapshot ();
        profile = Profile.report ();
        provenance = (if want Provenance then Provenance.capture () else None) }
    in
    Atomic.set Recorder.views saved;
    if prov_was then Provenance.enable () else Provenance.disable ();
    o
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let profile_to_json (p : Profile.report) =
  let rec node_to_json (n : Profile.alloc_node) =
    Json.Obj
      [ ("name", Json.Str n.Profile.an_name);
        ("calls", Json.Int n.Profile.an_calls);
        ("seconds", Json.Float n.Profile.an_seconds);
        ("self_seconds", Json.Float n.Profile.an_self_seconds);
        ("minor_words", Json.Float n.Profile.an_minor_words);
        ("self_minor_words", Json.Float n.Profile.an_self_minor_words);
        ("major_words", Json.Float n.Profile.an_major_words);
        ("self_major_words", Json.Float n.Profile.an_self_major_words);
        ("promoted_words", Json.Float n.Profile.an_promoted_words);
        ("minor_collections", Json.Int n.Profile.an_minor_collections);
        ("major_collections", Json.Int n.Profile.an_major_collections);
        ("children", Json.List (List.map node_to_json n.Profile.an_children))
      ]
  in
  let region_to_json (r : Profile.pool_region) =
    let busy =
      Array.fold_left
        (fun a w -> a +. w.Profile.ws_busy_seconds)
        0. r.Profile.pr_workers
    in
    let chunks =
      Array.fold_left (fun a w -> a + w.Profile.ws_chunks) 0 r.Profile.pr_workers
    in
    Json.Obj
      [ ("label", Json.Str r.Profile.pr_label);
        ("jobs", Json.Int r.Profile.pr_jobs);
        ("tasks", Json.Int r.Profile.pr_tasks);
        ("wall_seconds",
         Json.Float (Float.max 0. (r.Profile.pr_t1 -. r.Profile.pr_t0)));
        ("busy_seconds", Json.Float busy);
        ("chunks", Json.Int chunks) ]
  in
  Json.Obj
    [ ("wall_seconds", Json.Float p.Profile.p_wall_seconds);
      ("serial_seconds", Json.Float p.Profile.p_serial_seconds);
      ("parallel_busy_seconds", Json.Float p.Profile.p_parallel_busy_seconds);
      ("pool_wall_seconds", Json.Float p.Profile.p_pool_wall_seconds);
      ("serial_fraction", Json.Float p.Profile.p_serial_fraction);
      ("utilization", Json.Float p.Profile.p_utilization);
      ("max_jobs", Json.Int p.Profile.p_max_jobs);
      ("amdahl_max_speedup",
       (* the asymptote 1/f of the measured fraction; infinite when the
          window is entirely pool time *)
       (let f = p.Profile.p_serial_fraction in
        if f > 0. then Json.Float (1. /. f) else Json.Null));
      ("speculation",
       Json.Obj
         [ ("rounds", Json.Int (List.length p.Profile.p_rounds));
           ("rounds_dropped", Json.Int p.Profile.p_rounds_dropped);
           ("committed", Json.Int p.Profile.p_committed);
           ("misspeculated", Json.Int p.Profile.p_misspeculated);
           ("live", Json.Int p.Profile.p_live) ]);
      ("pool_regions", Json.List (List.map region_to_json p.Profile.p_regions));
      ("pool_regions_dropped", Json.Int p.Profile.p_regions_dropped);
      ("phases", Json.List (List.map node_to_json p.Profile.p_alloc)) ]
