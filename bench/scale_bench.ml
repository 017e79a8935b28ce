(* SCALE: route multi-thousand-switch topologies on the compact graph
   core, recording wall-clock route time and heap footprint per engine.

   The paper's evaluation runs at fabric scale (Table 1 tops out at a
   few hundred switches only because the figures need many repeats);
   this experiment is the proof that the CSR/bitset representation
   actually unlocks 3k-10k+ switches. Destinations are *sampled* — a
   full all-destination sweep at 5k switches is hours of CPU, and the
   route-time-per-destination signal is the same — with the sample size
   recorded in every row so two runs compare like with like.

   Memory is reported from [Gc.quick_stat]: [top_heap_words] is the
   process-lifetime peak of the major heap, i.e. monotone across rows —
   the first engine of a topology pays its CDG allocation and later
   cheaper engines inherit the ceiling. Rows are ordered so the peak
   column reads as "words needed to route this topology with this
   engine and everything before it"; the per-topology [Gc.compact]
   resets the *live* baseline but cannot shrink the recorded peak. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Prng = Nue_structures.Prng
module Engine = Nue_routing.Engine
module Json = Nue_pipeline.Json

let dest_sample = 16

(* Deterministic destination sample: shuffle a copy under a fixed seed,
   keep a sorted prefix. *)
let sample prng count terms =
  if Array.length terms <= count then Array.copy terms
  else begin
    let a = Array.copy terms in
    Prng.shuffle prng a;
    let s = Array.sub a 0 count in
    Array.sort compare s;
    s
  end

type case = {
  name : string;
  build : unit -> Network.t * Topology.torus option;
  engines : string list;
}

let baseline_engines = [ "minhop"; "sssp"; "updown" ]

let cases ~full =
  let tree k =
    (Topology.kary_ntree ~k ~n:3 ~terminals_per_leaf:1 (), None)
  in
  let torus d =
    let g = Topology.torus3d ~dims:(d, d, d) ~terminals_per_switch:1 () in
    (g.Topology.net, Some g)
  in
  let dfly ~a ~h ~g = (Topology.dragonfly ~a ~p:1 ~h ~g (), None) in
  let base =
    [ (* 3 levels of 40^2 switches: the CI budget topology. *)
      { name = "kary-ntree(40,3) 4800sw";
        build = (fun () -> tree 40);
        engines = baseline_engines @ [ "nue" ] };
      (* Sparse degree keeps the CDG small: 10k+ switches even in the
         default (CI) configuration. *)
      { name = "torus(22x22x22) 10648sw";
        build = (fun () -> torus 22);
        engines = baseline_engines @ [ "torus2qos"; "nue" ] };
      { name = "dragonfly(24,1,12,140) 3360sw";
        build = (fun () -> dfly ~a:24 ~h:12 ~g:140);
        engines = [ "minhop"; "sssp"; "nue" ] } ]
  in
  if not full then base
  else
    base
    @ [ (* The dense-CDG stretch case: ~790k channels, order 10^8
           dependency edges — expect several GB of heap. *)
        { name = "kary-ntree(58,3) 10092sw";
          build = (fun () -> tree 58);
          engines = [ "minhop"; "sssp"; "nue" ] };
        { name = "dragonfly(32,1,16,320) 10240sw";
          build = (fun () -> dfly ~a:32 ~h:16 ~g:320);
          engines = [ "minhop"; "sssp"; "nue" ] } ]

(* {1 Parallel speedup}

   One dedicated case for the domain pool: nue at vcs=1 (a single
   virtual layer, so every sampled destination batches into the same
   speculative rounds) on the CI fat-tree, routed at jobs=1 and
   jobs=[par_jobs]. Fat-tree shortest paths are up*/down*-acyclic, so
   speculative CDG admissions essentially never conflict and the
   speedup column measures the pool itself. The tables are
   byte-identical by construction (test/test_parallel.ml); here only
   the wall clock may differ. *)

let par_jobs = 4
let par_dest_sample = 32

let run_parallel () =
  Common.section "SCALE/PARALLEL: domain-pool speedup on the CI fat-tree";
  Printf.printf
    "cores: %d recommended domains; speedup is jobs=%d vs jobs=1\n\n"
    (Domain.recommended_domain_count ()) par_jobs;
  Common.print_header
    [ (30, "Topology"); (10, "Engine"); (6, "Jobs"); (6, "Dests");
      (10, "Route(s)"); (9, "Speedup") ];
  let net = Topology.kary_ntree ~k:40 ~n:3 ~terminals_per_leaf:1 () in
  let name = "kary-ntree(40,3) 4800sw" in
  let dests = sample (Prng.create 9) par_dest_sample (Network.terminals net) in
  let route jobs =
    let before = Nue_parallel.Pool.default_jobs () in
    Nue_parallel.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Nue_parallel.Pool.set_default_jobs before)
      (fun () ->
         Common.time (fun () ->
             Engine.route "nue" (Engine.spec ~vcs:1 ~dests net)))
  in
  let rows = ref [] in
  let row engine jobs seconds speedup ok =
    Printf.printf "%s%s%s%s%s%s\n%!"
      (Common.cell 30 name)
      (Common.cell 10 engine)
      (Common.cell 6 (string_of_int jobs))
      (Common.cell 6 (string_of_int (Array.length dests)))
      (Common.cell 10 (Printf.sprintf "%.2f" seconds))
      (Common.cell 9
         (match speedup with Some s -> Printf.sprintf "%.2fx" s | None -> "-"));
    rows :=
      Json.Obj
        ([ ("topology", Json.Str name);
           ("engine", Json.Str engine);
           ("jobs", Json.Int jobs);
           ("dests_sampled", Json.Int (Array.length dests));
           ("route_seconds", Json.Float seconds);
           ("ok", Json.Int (if ok then 1 else 0)) ]
         @ match speedup with
           | Some s -> [ ("speedup", Json.Float s) ]
           | None -> [])
      :: !rows
  in
  let r1, s1 = route 1 in
  row "nue" 1 s1 None (Result.is_ok r1);
  let rn, sn = route par_jobs in
  row "nue" par_jobs sn
    (Some (if sn > 0.0 then s1 /. sn else 0.0))
    (Result.is_ok rn);
  Report.add "scale_parallel" (Json.List (List.rev !rows));
  print_newline ()

let run ~full () =
  Common.section "SCALE: compact-core routing at thousands of switches";
  Printf.printf
    "destination sample: %d per topology (recorded per row)\n\n" dest_sample;
  Common.print_header
    [ (30, "Topology"); (9, "Switches"); (9, "Chans"); (10, "Engine");
      (6, "Dests"); (10, "Route(s)"); (10, "PeakMW"); (4, "ok") ];
  let rows = ref [] in
  List.iter
    (fun case ->
       let (net, torus), build_s = Common.time case.build in
       Gc.compact ();
       let terms = Network.terminals net in
       let dests = sample (Prng.create 9) dest_sample terms in
       List.iter
         (fun engine ->
            let spec = Engine.spec ~vcs:4 ?torus ~dests net in
            let result, seconds =
              Common.time (fun () -> Engine.route engine spec)
            in
            let ok = Result.is_ok result in
            let st = Gc.quick_stat () in
            let peak_mw = float_of_int st.Gc.top_heap_words /. 1e6 in
            Printf.printf "%s%s%s%s%s%s%s%s\n%!"
              (Common.cell 30 case.name)
              (Common.cell 9 (string_of_int (Network.num_switches net)))
              (Common.cell 9 (string_of_int (Network.num_channels net)))
              (Common.cell 10 engine)
              (Common.cell 6 (string_of_int (Array.length dests)))
              (Common.cell 10 (Printf.sprintf "%.2f" seconds))
              (Common.cell 10 (Printf.sprintf "%.1f" peak_mw))
              (Common.cell 4 (if ok then "yes" else "NO"));
            rows :=
              Json.Obj
                [ ("topology", Json.Str case.name);
                  ("engine", Json.Str engine);
                  ("switches", Json.Int (Network.num_switches net));
                  ("terminals", Json.Int (Network.num_terminals net));
                  ("channels", Json.Int (Network.num_channels net));
                  ("dests_sampled", Json.Int (Array.length dests));
                  ("build_seconds", Json.Float build_s);
                  ("route_seconds", Json.Float seconds);
                  ("top_heap_mwords", Json.Float peak_mw);
                  ("ok", Json.Int (if ok then 1 else 0)) ]
              :: !rows)
         case.engines)
    (cases ~full);
  Report.add "scale" (Json.List (List.rev !rows));
  print_newline ();
  run_parallel ()
