(* Engine-registry and experiment-pipeline tests: the full
   engine x topology matrix (every registered engine against every
   topology generator at small sizes), the structured error contract
   and the JSON emitter. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Verify = Nue_routing.Verify
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json

let test_case = Alcotest.test_case

(* Make the registry complete even if no Experiment value has been
   touched yet (test order is alphabetical, not linkage order). *)
let () = Nue_core.Nue_engine.ensure_registered ()

let all_engine_names =
  [ "minhop"; "sssp"; "updown"; "dfsssp"; "lash"; "torus2qos"; "fattree";
    "static-cdg"; "nue" ]

(* {1 Registry basics} *)

let registry_complete () =
  List.iter
    (fun name ->
       match Engine.find name with
       | Some (module E : Engine.ENGINE) ->
         Alcotest.(check string) ("name of " ^ name) name E.name
       | None -> Alcotest.failf "engine %s not registered" name)
    all_engine_names;
  let names = Engine.names () in
  Alcotest.(check int) "registry size" (List.length all_engine_names)
    (List.length names);
  Alcotest.(check int) "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let registry_order_deterministic () =
  Alcotest.(check (list string)) "two reads agree" (Engine.names ())
    (Engine.names ())

let unknown_engine () =
  let net = Helpers.ring ~terminals:1 4 in
  match Engine.route "bogus" (Engine.spec net) with
  | Error (Engine_error.Unknown_engine "bogus") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "bogus engine routed"

let invalid_vcs_rejected () =
  let net = Helpers.ring ~terminals:1 4 in
  List.iter
    (fun name ->
       match Engine.route name (Engine.spec ~vcs:0 net) with
       | Error (Engine_error.Invalid_spec _) -> ()
       | Error e ->
         Alcotest.failf "%s: wrong error for vcs=0: %s" name
           (Engine_error.to_string e)
       | Ok _ -> Alcotest.failf "%s accepted vcs=0" name)
    all_engine_names

(* {1 The engine x topology matrix} *)

let matrix_topologies =
  [ ("torus-3x3x3",
     Experiment.setup
       (Experiment.Torus3d { dims = (3, 3, 3); terminals = 1; redundancy = 1 }));
    ("torus-4x4x3-faulty",
     Experiment.setup ~faults:(Experiment.Kill_switches [ 5 ])
       (Experiment.Torus3d { dims = (4, 4, 3); terminals = 1; redundancy = 1 }));
    ("mesh-3x4", Experiment.setup (Experiment.Mesh { dims = [| 3; 4 |]; terminals = 1 }));
    ("hypercube-3", Experiment.setup (Experiment.Hypercube { dim = 3; terminals = 1 }));
    ("fully-connected-5",
     Experiment.setup (Experiment.Fully_connected { switches = 5; terminals = 2 }));
    ("random-12",
     Experiment.setup ~seed:7
       (Experiment.Random { switches = 12; links = 30; terminals = 2 }));
    ("2-ary-3-tree",
     Experiment.setup (Experiment.Kary_ntree { k = 2; n = 3; terminals = 2 }));
    ("dragonfly",
     Experiment.setup (Experiment.Dragonfly { a = 4; p = 2; h = 2; g = 5 }));
    ("kautz",
     Experiment.setup
       (Experiment.Kautz { degree = 2; diameter = 3; terminals = 2; redundancy = 1 })) ]

(* Every engine must return either a verifiable table or a structured
   error consistent with its declared capabilities — never raise, never
   [Internal]. *)
let check_outcome ~topo name (caps : Engine.capabilities)
    (result : (Nue_routing.Table.t, Engine_error.t) result) =
  let ctx = Printf.sprintf "%s on %s" name topo in
  match result with
  | Ok table ->
    let r = Verify.check table in
    if not r.Verify.cycle_free then Alcotest.failf "%s: cyclic channel lists" ctx;
    if (not caps.Engine.may_disconnect) && not r.Verify.connected then
      Alcotest.failf "%s: not connected" ctx;
    if caps.Engine.deadlock_free && not r.Verify.deadlock_free then
      Alcotest.failf "%s: deadlock-free engine produced cyclic CDG" ctx
  | Error (Engine_error.Topology_mismatch _) ->
    if not (caps.Engine.needs_torus_coords || caps.Engine.needs_tree_meta) then
      Alcotest.failf "%s: topology mismatch from a topology-agnostic engine" ctx
  | Error (Engine_error.Vc_budget_exceeded { needed; available }) ->
    if caps.Engine.respects_vc_budget then
      Alcotest.failf "%s: budget-respecting engine exceeded the budget" ctx;
    if needed <= available then
      Alcotest.failf "%s: vc_budget_exceeded with needed=%d <= available=%d" ctx
        needed available
  | Error (Engine_error.Unroutable _) ->
    (* Only the topology-aware engines may hit a fault envelope. *)
    if not (caps.Engine.needs_torus_coords || caps.Engine.needs_tree_meta) then
      Alcotest.failf "%s: unroutable from a topology-agnostic engine" ctx
  | Error e -> Alcotest.failf "%s: unexpected error %s" ctx (Engine_error.to_string e)

let matrix () =
  List.iter
    (fun (topo, setup) ->
       let built = Experiment.build setup in
       List.iter
         (fun (module E : Engine.ENGINE) ->
            let caps = E.capabilities in
            let outcome = Experiment.run ~vcs:8 ~engine:E.name built in
            check_outcome ~topo E.name caps outcome.Experiment.table;
            (match (outcome.Experiment.table, outcome.Experiment.metrics) with
             | Ok _, None -> Alcotest.failf "%s: Ok without metrics" E.name
             | Error _, Some _ -> Alcotest.failf "%s: metrics without table" E.name
             | _ -> ()))
         (Engine.all ()))
    matrix_topologies

let matrix_has_positive_cases () =
  (* Sanity for the matrix itself: the topology-aware engines do
     succeed somewhere (so the mismatch arm is not all they exercise). *)
  let succeeded engine setup =
    let built = Experiment.build setup in
    match (Experiment.run ~vcs:8 ~engine built).Experiment.table with
    | Ok _ -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "torus2qos routes the intact torus" true
    (succeeded "torus2qos" (List.assoc "torus-3x3x3" matrix_topologies));
  Alcotest.(check bool) "fattree routes the 2-ary 3-tree" true
    (succeeded "fattree" (List.assoc "2-ary-3-tree" matrix_topologies))

(* {1 Structured errors from the layered routings} *)

let dfsssp_structured_budget () =
  (* A random network dense in cycles: one layer is not enough. *)
  let built = Helpers.dense_random_built () in
  match (Experiment.run ~vcs:1 ~engine:"dfsssp" built).Experiment.table with
  | Error (Engine_error.Vc_budget_exceeded { needed; available }) ->
    Alcotest.(check int) "available" 1 available;
    Alcotest.(check bool) "needed > available" true (needed > available)
  | Error e -> Alcotest.failf "wrong error: %s" (Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "dfsssp fit a cyclic network into one layer"

let torus2qos_mismatch_not_raise () =
  let net = Helpers.ring ~terminals:1 6 in
  match Engine.route "torus2qos" (Engine.spec net) with
  | Error (Engine_error.Topology_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "torus2qos routed without torus metadata"

let lash_structured_budget () =
  let built = Helpers.dense_random_built () in
  match (Experiment.run ~vcs:1 ~engine:"lash" built).Experiment.table with
  | Error (Engine_error.Vc_budget_exceeded { needed; available }) ->
    Alcotest.(check int) "available" 1 available;
    Alcotest.(check bool) "needed > available" true (needed > available)
  | Error e -> Alcotest.failf "wrong error: %s" (Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "lash fit a cyclic network into one layer"

(* One layer assignment per route: below the requirement the engine
   reports the same [needed] for every budget, and at or above it the
   table is the one an ample budget gives. *)
let budget_sweep engine fixture () =
  let built = (List.assoc fixture Test_compact.fixtures) () in
  let route vcs = Engine.route engine (Experiment.spec ~vcs built) in
  let ample =
    match route 64 with
    | Ok t -> t
    | Error e -> Alcotest.failf "budget 64: %s" (Engine_error.to_string e)
  in
  let needed = ample.Nue_routing.Table.num_vls in
  let expected = Helpers.table_fingerprint ample in
  for b = 1 to needed + 1 do
    match route b with
    | Error (Engine_error.Vc_budget_exceeded r) when b < needed ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "budget %d: (needed, available)" b)
        (needed, b) (r.needed, r.available)
    | Ok t when b >= needed ->
      Alcotest.(check string)
        (Printf.sprintf "budget %d: table of budget 64" b)
        expected (Helpers.table_fingerprint t)
    | Ok _ -> Alcotest.failf "budget %d routed below need %d" b needed
    | Error e ->
      Alcotest.failf "budget %d (need %d): %s" b needed
        (Engine_error.to_string e)
  done

(* Fig. 1b's verdict on FIG1's reduced fabric (bench/fig1.ml): DFSSSP
   needs more than the 4-VC budget, so it is inapplicable there. *)
let dfsssp_exceeds_fig1_budget () =
  let built =
    Experiment.build
      (Experiment.setup ~seed:1 ~faults:(Experiment.Kill_switches [ 5 ])
         (Experiment.Torus3d
            { dims = (4, 4, 3); terminals = 2; redundancy = 1 }))
  in
  match (Experiment.run ~vcs:4 ~engine:"dfsssp" built).Experiment.table with
  | Error (Engine_error.Vc_budget_exceeded { needed; available }) ->
    Alcotest.(check int) "available" 4 available;
    Alcotest.(check bool)
      (Printf.sprintf "needed %d > 4" needed) true (needed > 4)
  | Error e -> Alcotest.failf "wrong error: %s" (Engine_error.to_string e)
  | Ok t ->
    Alcotest.failf "dfsssp routed FIG1's fabric in %d VLs"
      t.Nue_routing.Table.num_vls

(* {1 Experiment pipeline} *)

let run_all_covers_registry () =
  let built = Helpers.random_built () in
  let outcomes = Experiment.run_all ~vcs:4 built in
  Alcotest.(check (list string)) "one outcome per engine, registry order"
    (Engine.names ())
    (List.map (fun o -> o.Experiment.engine) outcomes)

let fault_stream_deterministic () =
  let setup =
    Experiment.setup ~seed:11 ~faults:(Experiment.Link_failures 0.05)
      (Experiment.Torus3d { dims = (4, 4, 3); terminals = 1; redundancy = 1 })
  in
  let a = Experiment.build setup and b = Experiment.build setup in
  Alcotest.(check int) "same degraded channel count"
    (Network.num_channels a.Experiment.net)
    (Network.num_channels b.Experiment.net);
  Alcotest.(check bool) "faults were injected" true
    (Network.num_channels a.Experiment.net
     < Network.num_channels a.Experiment.base)

(* {1 JSON emitter} *)

let json_escaping () =
  Alcotest.(check string) "quotes and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}));
  Alcotest.(check string) "control chars" {|"x\n\t\u0001"|}
    (Json.to_string (Json.Str "x\n\t\001"));
  Alcotest.(check string) "empty" {|""|} (Json.to_string (Json.Str ""))

let json_values () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "integer float" "3" (Json.to_string (Json.Float 3.0));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let json_nesting () =
  let v =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("o", Json.Obj [ ("k", Json.Str "v") ]);
        ("none", Json.Null) ]
  in
  Alcotest.(check string) "compact"
    {|{"xs":[1,2],"o":{"k":"v"},"none":null}|}
    (Json.to_string v)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let json_outcome_shape () =
  let built = Helpers.random_built () in
  let ok = Experiment.outcome_to_json (Experiment.run ~vcs:4 ~engine:"nue" built) in
  let s = Json.to_string ok in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " present") true
         (contains ~needle s))
    [ {|"engine":"nue"|}; {|"applicable":true|}; {|"verify"|}; {|"num_vls"|} ];
  let err =
    Experiment.outcome_to_json (Experiment.run ~vcs:1 ~engine:"dfsssp" built)
  in
  let s = Json.to_string err in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " present") true
         (contains ~needle s))
    [ {|"applicable":false|}; {|"kind":"vc_budget_exceeded"|}; {|"needed"|} ]

let suite =
  [ ("engine:registry",
     [ test_case "all engines registered" `Quick registry_complete;
       test_case "deterministic order" `Quick registry_order_deterministic;
       test_case "unknown engine" `Quick unknown_engine;
       test_case "vcs=0 rejected" `Quick invalid_vcs_rejected ]);
    ("engine:matrix",
     [ test_case "every engine x every topology" `Slow matrix;
       test_case "topology-aware engines succeed at home" `Quick
         matrix_has_positive_cases ]);
    ("engine:errors",
     [ test_case "dfsssp budget is structured" `Quick dfsssp_structured_budget;
       test_case "torus2qos mismatch, no raise" `Quick torus2qos_mismatch_not_raise;
       test_case "lash budget is structured" `Quick lash_structured_budget;
       test_case "dfsssp exceeds FIG1's 4-VC budget" `Quick
         dfsssp_exceeds_fig1_budget ]
     @ List.concat_map
         (fun engine ->
            List.map
              (fun fixture ->
                 test_case
                   (Printf.sprintf "%s budget sweep on %s" engine fixture)
                   `Quick (budget_sweep engine fixture))
              [ "dense16"; "torus333" ])
         [ "dfsssp"; "lash" ]);
    ("engine:pipeline",
     [ test_case "run_all covers registry" `Quick run_all_covers_registry;
       test_case "fault stream deterministic" `Quick fault_stream_deterministic ]);
    ("engine:json",
     [ test_case "string escaping" `Quick json_escaping;
       test_case "scalar values" `Quick json_values;
       test_case "nesting" `Quick json_nesting;
       test_case "outcome shape" `Quick json_outcome_shape ]) ]
