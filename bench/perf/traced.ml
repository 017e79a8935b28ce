(* The traced run: per-layer attribution from spans the harness records
   around public entry points, at jobs=1 so allocation counts are exact
   (only [parallel.route_jobs2] uses two domains).

   Each rep: build the fabric and traffic; [route.replay] repeats the
   order of [Nue.route_with_stats] through public calls (partition and
   shuffle, then per layer root selection, complete CDG, escape paths,
   and per destination the constrained Dijkstra plus the weight
   update); the replayed table must pass [Verify.check]. Then
   [Engine.route] is timed at jobs=1 and jobs=2, [Verify] is split into
   its parts, and [Experiment.measure], [Sim.run] and
   [Sim.run_with_telemetry] run on the jobs=1 table. Reps repeat until
   [seconds] have passed; times are medians over reps, counts come from
   rep 0 and are the same on every rep. *)

module Network = Nue_netgraph.Network
module Prng = Nue_structures.Prng
module Complete_cdg = Nue_cdg.Complete_cdg
module Digraph = Nue_cdg.Digraph
module Partition = Nue_core.Partition
module Rootsel = Nue_core.Rootsel
module Escape = Nue_core.Escape
module Nue_dijkstra = Nue_core.Nue_dijkstra
module Balance = Nue_routing.Balance
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Experiment = Nue_pipeline.Experiment
module Sim = Nue_sim.Sim
module Pool = Nue_parallel.Pool
module Json = Nue_pipeline.Json

type replay = {
  table : Table.t;
  cdg_edges : int;  (* edges of one layer's complete CDG *)
  used_edges : int;
  blocked_edges : int;
}

(* The library layers the replay calls; their summed self time is what
   [Engine.route] at jobs=1 costs without its speculation machinery. *)
let replay_layers =
  [ "core.partition"; "core.rootsel"; "cdg.create"; "core.escape";
    "core.dijkstra"; "routing.balance"; "routing.table_make" ]

let replay rec_ ~seed ~vcs net ~dests =
  let span name f = Spans.with_ rec_ name f in
  let sources = Network.terminals net in
  let prng = Prng.create seed in
  let subsets =
    span "core.partition" (fun () ->
        let s =
          Partition.partition ~strategy:Partition.Kway ~prng net ~dests ~k:vcs
        in
        Array.iter (fun subset -> Prng.shuffle prng subset) s;
        s)
  in
  let nn = Network.num_nodes net in
  let dest_pos = Array.make nn (-1) in
  Array.iteri (fun i d -> dest_pos.(d) <- i) dests;
  let next_channel = Array.map (fun _ -> Array.make nn (-1)) dests in
  let layer_of_dest = Array.make (Array.length dests) 0 in
  let weights = Array.make (Network.num_channels net) 1.0 in
  let scale = Balance.tie_break_scale ~sources ~dests in
  let stats = Nue_dijkstra.fresh_stats () in
  let cdg_edges = ref 0 and used = ref 0 and blocked = ref 0 in
  Array.iteri
    (fun layer subset ->
       if Array.length subset > 0 then
         span "core.layer" (fun () ->
             let root = span "core.rootsel" (fun () -> Rootsel.choose net ~dests:subset) in
             let cdg = span "cdg.create" (fun () -> Complete_cdg.create net) in
             let escape =
               span "core.escape" (fun () -> Escape.prepare cdg ~root ~dests:subset)
             in
             Array.iter
               (fun dest ->
                  let nexts =
                    span "core.dijkstra" (fun () ->
                        Nue_dijkstra.route_destination cdg ~escape ~weights ~dest
                          ~stats ())
                  in
                  let pos = dest_pos.(dest) in
                  Array.blit nexts 0 next_channel.(pos) 0 nn;
                  layer_of_dest.(pos) <- layer;
                  span "routing.balance" (fun () ->
                      Balance.update_weights ~scale net ~weights ~nexts ~dest
                        ~sources))
               subset;
             span "cdg.count_states" (fun () ->
                 let unused = ref 0 in
                 Complete_cdg.count_states cdg ~used ~blocked ~unused;
                 cdg_edges := Complete_cdg.num_edges cdg)))
    subsets;
  let table =
    span "routing.table_make" (fun () ->
        Table.make ~net ~algorithm:(Printf.sprintf "nue-replay-%dvl" vcs) ~dests
          ~next_channel ~vl:(Table.Per_dest layer_of_dest) ~num_vls:vcs ())
  in
  { table; cdg_edges = !cdg_edges; used_edges = !used; blocked_edges = !blocked }

type rep = {
  replayed : replay;
  engine : Table.t;  (* Engine.route at jobs=1 *)
  vcdg_edges : int;
  sim : Sim.outcome;
  telemetry : Sim.telemetry;
  terminals : int;
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let run_rep rec_ (w : Workload.t) ~seed =
  let span name f = Spans.with_ rec_ name f in
  Pool.set_default_jobs 1;
  span "workload" @@ fun () ->
  let built = span "netgraph.build" (fun () -> Workload.build w) in
  let dests = Workload.destinations w built in
  let traffic = span "sim.traffic_gen" (fun () -> Workload.traffic w ~seed built) in
  let inputs =
    { Workload.built; dests; traffic = Workload.routed_only built dests traffic }
  in
  let net = built.Experiment.net in
  let replayed =
    span "route.replay" (fun () ->
        replay rec_ ~seed:built.Experiment.seed ~vcs:w.Workload.vcs net ~dests)
  in
  if not (E2e.verified (span "replay.verify" (fun () -> Verify.check replayed.table)))
  then fail "replayed table fails Verify.check";
  let engine = span "parallel.route_jobs1" (fun () -> E2e.route ~jobs:1 w inputs) in
  let engine2 = span "parallel.route_jobs2" (fun () -> E2e.route ~jobs:2 w inputs) in
  Pool.set_default_jobs 1;
  if not (E2e.same_table engine engine2) then fail "jobs=2 table differs from jobs=1";
  let connected, vcdg, cycle =
    span "routing.verify" (fun () ->
        let c = span "routing.verify_connected" (fun () -> Verify.connected engine) in
        let g = span "routing.verify_vcdg" (fun () -> Verify.induced_vcdg engine) in
        let cyc = span "cdg.find_cycle" (fun () -> Digraph.find_cycle g) in
        (c, g, cyc))
  in
  if not connected then fail "table is not connected";
  if cycle <> None then fail "table has a dependency cycle";
  ignore (span "metrics.measure" (fun () -> Experiment.measure engine));
  let config = Workload.sim_config w in
  let sim, (sim_t, telemetry) =
    span "sim.run" (fun () ->
        let o =
          span "sim.simulate" (fun () ->
              Sim.run ~config engine ~traffic:inputs.Workload.traffic)
        in
        let ot =
          span "sim.simulate_telemetry" (fun () ->
              Sim.run_with_telemetry ~config engine ~traffic:inputs.Workload.traffic)
        in
        (o, ot))
  in
  if not (E2e.delivered sim) then fail "simulation did not deliver every packet";
  if sim <> sim_t then fail "telemetry changed the simulation outcome";
  { replayed; engine; vcdg_edges = Digraph.num_edges vcdg; sim; telemetry;
    terminals = Network.num_terminals net }

(* {1 Metrics from the recorded spans} *)

let run (w : Workload.t) ~seed ~seconds ~trace_file =
  let rec_ = Spans.create ~workload:w.Workload.name in
  let failures = ref 0 in
  (* Every passing rep contributes its spans; only the first keeps its
     outputs, so later reps do not run on a growing heap. *)
  let passed = ref [] and first_rep = ref None in
  let attempted = ref 0 in
  let t0 = Spans.now () in
  while !attempted = 0 || Spans.now () -. t0 < seconds do
    Spans.set_rep rec_ !attempted;
    (match run_rep rec_ w ~seed with
     | r ->
       passed := !attempted :: !passed;
       if Option.is_none !first_rep then first_rep := Some r
     | exception e ->
       incr failures;
       let why = match e with Failed m -> m | e -> Printexc.to_string e in
       Printf.printf "  traced rep %d FAILED: %s\n%!" !attempted why);
    incr attempted
  done;
  let passed = List.rev !passed in
  (* The untraced reference for [trace.overhead]: the e2e table path
     (route, then Verify.check), without spans. *)
  let reference =
    match passed with
    | [] -> Float.nan
    | _ ->
      let inputs = Workload.setup w ~seed in
      let table, route_s = E2e.time (fun () -> E2e.route ~jobs:1 w inputs) in
      let _, verify_s = E2e.time (fun () -> Verify.check table) in
      route_s +. verify_s
  in
  let all = Spans.spans rec_ in
  let children = Spans.children_index all in
  let in_rep r = List.filter (fun s -> s.Spans.rep = r) all in
  let named name spans = List.filter (fun s -> s.Spans.name = name) spans in
  let sum f name spans = List.fold_left (fun acc s -> acc +. f s) 0.0 (named name spans) in
  let self name spans = sum (Spans.self_time children) name spans in
  let dur name spans = sum Spans.duration name spans in
  let alloc name spans = sum (fun s -> s.Spans.words) name spans in
  let per_rep f = Stats.median (List.map (fun r -> f (in_rep r)) passed) in
  let first f = match !first_rep with Some r -> f r | None -> Float.nan in
  let info key =
    first (fun r -> Option.value ~default:Float.nan (Table.info_value r.engine key))
  in
  let dests = first (fun r -> float_of_int (Array.length r.engine.Table.dests)) in
  let dest_ms =
    List.concat_map
      (fun r ->
         List.map (fun s -> Spans.duration s *. 1e3) (named "core.dijkstra" (in_rep r)))
      passed
  in
  let sim_flits = first (fun r -> E2e.flits r.sim) in
  let cycles = first (fun r -> float_of_int r.sim.Sim.cycles) in
  let flit_hops =
    first (fun r ->
        float_of_int (Array.fold_left ( + ) 0 r.telemetry.Sim.link_transmits))
  in
  let sim_s = per_rep (dur "sim.simulate") in
  let m name unit_ value = Report.metric name unit_ value in
  let metrics =
    [ m "netgraph.build_s" "s" (per_rep (self "netgraph.build"));
      m "sim.traffic_gen_s" "s" (per_rep (self "sim.traffic_gen"));
      m "cdg.create_s" "s" (per_rep (self "cdg.create"));
      m "cdg.create_mwords" "Mwords" (per_rep (alloc "cdg.create") /. 1e6);
      m "cdg.edges" "count" (first (fun r -> float_of_int r.replayed.cdg_edges));
      m "core.dijkstra_s" "s" (per_rep (self "core.dijkstra"));
      m "core.dijkstra_dest_ms.p50" "ms" (Stats.percentile 50.0 dest_ms);
      m "core.dijkstra_dest_ms.p90" "ms" (Stats.percentile 90.0 dest_ms);
      m "core.dijkstra_dests" "count"
        (first (fun r -> float_of_int (Array.length r.replayed.table.Table.dests)));
      m "core.dijkstra_mwords" "Mwords" (per_rep (alloc "core.dijkstra") /. 1e6);
      m "core.partition_s" "s" (per_rep (self "core.partition"));
      m "core.rootsel_s" "s" (per_rep (self "core.rootsel"));
      m "core.escape_s" "s" (per_rep (self "core.escape"));
      m "core.escape_deps" "count" (info "initial_deps");
      m "routing.balance_s" "s" (per_rep (self "routing.balance"));
      m "cdg.cycle_searches" "count" (info "cycle_searches");
      m "cdg.searches_per_dest" "count" (info "cycle_searches" /. dests);
      m "cdg.blocked_ratio" "ratio"
        (first (fun r ->
             let b = float_of_int r.replayed.blocked_edges in
             b /. Float.max 1.0 (b +. float_of_int r.replayed.used_edges)));
      m "core.impasse_dests" "count" (info "impasse_dests");
      m "core.backtracks" "count" (info "backtracks");
      m "core.shortcuts" "count" (info "shortcuts");
      m "core.fallbacks" "count" (info "fallbacks");
      m "parallel.route_jobs1_s" "s" (per_rep (dur "parallel.route_jobs1"));
      m "parallel.speedup" "ratio"
        (per_rep (fun s -> dur "parallel.route_jobs1" s /. dur "parallel.route_jobs2" s));
      m "parallel.speculation_s" "s"
        (per_rep (fun s ->
             dur "parallel.route_jobs1" s
             -. List.fold_left (fun acc l -> acc +. self l s) 0.0 replay_layers));
      m "parallel.misspeculations" "count" (info "misspeculations");
      m "parallel.misspec_ratio" "ratio" (info "misspeculations" /. dests);
      m "routing.verify_s" "s" (per_rep (dur "routing.verify"));
      m "routing.verify_connected_s" "s" (per_rep (self "routing.verify_connected"));
      m "routing.verify_vcdg_s" "s" (per_rep (self "routing.verify_vcdg"));
      m "cdg.find_cycle_s" "s" (per_rep (self "cdg.find_cycle"));
      m "routing.vcdg_edges" "count" (first (fun r -> float_of_int r.vcdg_edges));
      m "sim.run_s" "s" sim_s;
      m "sim.cycles" "cycles" cycles;
      m "sim.flit_hops" "count" flit_hops;
      m "sim.us_per_cycle" "us" (sim_s *. 1e6 /. cycles);
      m "sim.ns_per_flit_hop" "ns" (sim_s *. 1e9 /. flit_hops);
      m "sim.link_util_mean" "ratio"
        (first (fun r ->
             let u = r.telemetry.Sim.link_utilization in
             Array.fold_left ( +. ) 0.0 u /. float_of_int (max 1 (Array.length u))));
      m "sim.link_util_peak" "ratio"
        (first (fun r -> r.telemetry.Sim.peak_link_utilization));
      m "sim.words_per_flit" "words" (per_rep (alloc "sim.simulate") /. sim_flits);
      m "sim.flits_per_s" "flits/s" (sim_flits /. sim_s);
      m "sim.accepted_load" "flits/cyc/term"
        (first (fun r -> sim_flits /. cycles /. float_of_int r.terminals));
      m "sim.latency_p50_cycles" "cycles" (first (fun r -> r.sim.Sim.latency_p50));
      m "sim.latency_p95_cycles" "cycles" (first (fun r -> r.sim.Sim.latency_p95));
      m "sim.telemetry_ratio" "ratio"
        (per_rep (fun s -> dur "sim.simulate_telemetry" s /. dur "sim.simulate" s));
      m "metrics.measure_s" "s" (per_rep (dur "metrics.measure"));
      m "trace.coverage" "ratio"
        (List.fold_left
           (fun acc name -> Float.min acc (Spans.coverage all ~name))
           1.0
           [ "route.replay"; "core.layer"; "routing.verify"; "sim.run" ]);
      m "trace.overhead" "ratio"
        (per_rep (fun s -> dur "parallel.route_jobs1" s +. dur "routing.verify" s)
         /. reference) ]
  in
  (* Where the time went, per span name: median self time per rep. *)
  let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) all) in
  let rep_total = per_rep (dur "workload") in
  let rows =
    List.map (fun n -> (n, per_rep (self n), List.length (named n all))) names
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  Printf.printf "  %-28s %10s %7s %8s\n" "span" "self s" "share" "calls";
  List.iter
    (fun (n, s, calls) ->
       Printf.printf "  %-28s %10.4f %6.1f%% %8d\n" n s (100.0 *. s /. rep_total) calls)
    rows;
  let text = Json.to_string (Spans.to_json rec_) in
  Option.iter
    (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc text))
    trace_file;
  ( { Report.attempted = !attempted; failed = !failures; metrics },
    Spans.check text )
