(* TRACE: per-engine wall time and instrumentation counters over a
   small topology set, recorded into BENCH_nue.json. This is the
   section the perf trajectory reads: omega-memoization effectiveness
   (Section 4.6.1), heap op counts for the CDG-constrained Dijkstra,
   and per-engine seconds, per topology, per engine.

   Counters are reset before each engine run, so every row's snapshot
   is attributable to that engine alone. *)

module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Obs = Nue_obs.Obs

let setups ~full =
  if full then
    [ ("random-64", Experiment.setup ~seed:42
         (Experiment.Random { switches = 64; links = 256; terminals = 4 }));
      ("torus-6x5x5",
       Experiment.setup
         (Experiment.Torus3d { dims = (6, 5, 5); terminals = 2; redundancy = 1 }));
      ("kary-4x3",
       Experiment.setup (Experiment.Kary_ntree { k = 4; n = 3; terminals = 4 })) ]
  else
    [ ("random-16", Experiment.setup ~seed:42
         (Experiment.Random { switches = 16; links = 48; terminals = 2 }));
      ("torus-4x4x3",
       Experiment.setup
         (Experiment.Torus3d { dims = (4, 4, 3); terminals = 2; redundancy = 1 }));
      ("kary-2x3",
       Experiment.setup (Experiment.Kary_ntree { k = 2; n = 3; terminals = 2 })) ]

let run ?(full = false) () =
  Common.section "TRACE: per-engine timings and counters (BENCH_nue.json)";
  Common.print_header
    [ (14, "Topology"); (11, "Engine"); (10, "Time s"); (11, "Memo hit%");
      (10, "Heap ops"); (9, "Status") ];
  let rows = ref [] in
  List.iter
    (fun (topo_name, setup) ->
       let built = Experiment.build setup in
       List.iter
         (fun (module E : Engine.ENGINE) ->
            let o, obs =
              Experiment.observe [ Experiment.Counters ] (fun () ->
                  Experiment.run ~vcs:8 ~engine:E.name built)
            in
            let snap = obs.Experiment.counters in
            let c = Obs.find snap in
            let usable = c "cdg.usable_calls" in
            let memo_pct =
              if usable = 0 then "-"
              else
                Printf.sprintf "%.1f"
                  (100.0
                   *. float_of_int
                        (c "cdg.memo.hit_blocked" + c "cdg.memo.hit_used")
                   /. float_of_int usable)
            in
            let heap_ops = c "heap.inserts" + c "heap.extracts" in
            let status =
              match o.Experiment.table with
              | Ok _ -> "ok"
              | Error (Engine_error.Topology_mismatch _) -> "n/a"
              | Error e -> Engine_error.kind e
            in
            Printf.printf "%s%s%s%s%s%s\n"
              (Common.cell 14 topo_name)
              (Common.cell 11 o.Experiment.engine)
              (Common.cell 10 (Printf.sprintf "%.4f" o.Experiment.seconds))
              (Common.cell 11 memo_pct)
              (Common.cell 10 (string_of_int heap_ops))
              (Common.cell 9 status);
            rows :=
              Json.Obj
                [ ("topology", Json.Str topo_name);
                  ("engine", Json.Str o.Experiment.engine);
                  ("seconds", Json.Float o.Experiment.seconds);
                  ("applicable",
                   Json.Bool (Result.is_ok o.Experiment.table));
                  ("status", Json.Str status);
                  ("trace", Experiment.trace_to_json snap) ]
              :: !rows)
         (Engine.all ()))
    (setups ~full);
  Report.add "trace" (Json.List (List.rev !rows))
