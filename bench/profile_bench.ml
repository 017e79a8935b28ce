(* PROFILE: resource-attribution profiling on the CI scale fixture.

   One row per engine on the 4.8k-switch fat-tree: the measured Amdahl
   serial fraction, pool utilization and per-phase alloc breakdown from
   [Experiment.observe [Alloc]] — the numeric targets the next perf PR
   optimizes against (ROADMAP: layer-sequential routing and the serial
   commit fraction). Rows are compact on purpose: the phase map keeps
   the top two levels of the alloc tree only, so the flattened
   BENCH_history.jsonl entries track a bounded, stable key set.

   Like `scale`, this experiment is not in the no-argument default set
   (it routes a 4.8k-switch topology several times). *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Prng = Nue_structures.Prng
module Engine = Nue_routing.Engine
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Profile = Nue_obs.Profile
module Pool = Nue_parallel.Pool

let jobs = 4
let dest_sample = 32

(* engine, vcs: nue and minhop route the single-layer case (all sampled
   destinations batch into the same speculative rounds, the
   serial-fraction signal of interest); dfsssp needs the VL budget for
   its layering. *)
let engines = [ ("minhop", 1); ("dfsssp", 4); ("nue", 1) ]

(* Top two levels of the alloc tree, as "parent/child" keyed entries
   with a bounded value set (seconds + inclusive/self mega-words). *)
let phase_map (p : Profile.report) =
  let entry (n : Profile.alloc_node) =
    Json.Obj
      [ ("seconds", Json.Float n.Profile.an_seconds);
        ("alloc_mwords",
         Json.Float
           ((n.Profile.an_minor_words +. n.Profile.an_major_words) /. 1e6));
        ("self_mwords",
         Json.Float
           ((n.Profile.an_self_minor_words +. n.Profile.an_self_major_words)
            /. 1e6)) ]
  in
  let acc = ref [] in
  List.iter
    (fun (n : Profile.alloc_node) ->
       acc := (n.Profile.an_name, entry n) :: !acc;
       List.iter
         (fun (c : Profile.alloc_node) ->
            acc :=
              (n.Profile.an_name ^ "/" ^ c.Profile.an_name, entry c) :: !acc)
         n.Profile.an_children)
    p.Profile.p_alloc;
  Json.Obj (List.rev !acc)

let run ~full:_ () =
  Common.section "PROFILE: resource attribution on the CI fat-tree";
  Printf.printf
    "jobs: %d; %d sampled destinations; serial fraction is measured from \
     the pool timeline\n\n"
    jobs dest_sample;
  Common.print_header
    [ (10, "Engine"); (6, "Jobs"); (10, "Wall(s)"); (9, "Serial"); (8, "Util");
      (10, "AllocMW"); (9, "Misspec"); (4, "ok") ];
  let net = Topology.kary_ntree ~k:40 ~n:3 ~terminals_per_leaf:1 () in
  let name = "kary-ntree(40,3) 4800sw" in
  let terms = Network.terminals net in
  let dests =
    if Array.length terms <= dest_sample then Array.copy terms
    else begin
      let a = Array.copy terms in
      Prng.shuffle (Prng.create 9) a;
      let s = Array.sub a 0 dest_sample in
      Array.sort compare s;
      s
    end
  in
  let rows = ref [] in
  List.iter
    (fun (engine, vcs) ->
       let before = Pool.default_jobs () in
       Pool.set_default_jobs jobs;
       let result, obs =
         Fun.protect
           ~finally:(fun () -> Pool.set_default_jobs before)
           (fun () ->
              Experiment.observe [ Experiment.Alloc ] (fun () ->
                  Engine.route engine (Engine.spec ~vcs ~dests net)))
       in
       let prof = obs.Experiment.profile in
       let ok = Result.is_ok result in
       let alloc_mw =
         List.fold_left
           (fun a (n : Profile.alloc_node) ->
              a +. n.Profile.an_minor_words +. n.Profile.an_major_words)
           0. prof.Profile.p_alloc
         /. 1e6
       in
       Printf.printf "%s%s%s%s%s%s%s%s\n%!"
         (Common.cell 10 engine)
         (Common.cell 6 (string_of_int jobs))
         (Common.cell 10 (Printf.sprintf "%.2f" prof.Profile.p_wall_seconds))
         (Common.cell 9 (Printf.sprintf "%.4f" prof.Profile.p_serial_fraction))
         (Common.cell 8
            (Printf.sprintf "%.1f%%" (100. *. prof.Profile.p_utilization)))
         (Common.cell 10 (Printf.sprintf "%.1f" alloc_mw))
         (Common.cell 9 (string_of_int prof.Profile.p_misspeculated))
         (Common.cell 4 (if ok then "yes" else "NO"));
       rows :=
         Json.Obj
           [ ("topology", Json.Str name);
             ("engine", Json.Str engine);
             ("jobs", Json.Int jobs);
             ("vcs", Json.Int vcs);
             ("dests_sampled", Json.Int (Array.length dests));
             ("wall_seconds", Json.Float prof.Profile.p_wall_seconds);
             ("serial_seconds", Json.Float prof.Profile.p_serial_seconds);
             ("parallel_busy_seconds",
              Json.Float prof.Profile.p_parallel_busy_seconds);
             ("serial_fraction", Json.Float prof.Profile.p_serial_fraction);
             ("utilization", Json.Float prof.Profile.p_utilization);
             ("alloc_mwords", Json.Float alloc_mw);
             ("committed", Json.Int prof.Profile.p_committed);
             ("misspeculated", Json.Int prof.Profile.p_misspeculated);
             ("live", Json.Int prof.Profile.p_live);
             ("ok", Json.Int (if ok then 1 else 0));
             ("phases", phase_map prof) ]
         :: !rows)
    engines;
  Report.add "profile" (Json.List (List.rev !rows));
  print_newline ()
