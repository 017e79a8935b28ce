(* Tests for the routing-provenance layer: determinism and coverage of
   the recorded trails, agreement between explanations and the computed
   table, the acceptance scenario (a faulted torus whose trail shows a
   blocked alternative and an escape fallback), the zero-cost discipline
   of the disabled recorder, the JSON parser round-trip, and structural
   well-formedness of every DOT exporter (without requiring graphviz). *)

module Network = Nue_netgraph.Network
module Serialize = Nue_netgraph.Serialize
module Fault = Nue_netgraph.Fault
module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Provenance = Nue_core.Provenance
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json

let test_case = Alcotest.test_case

(* The standard recorded run of these tests: a faulted 4x4x3 torus at
   2 VCs — small enough for all-pairs checks. *)
let recorded_run =
  lazy
    (let built =
       Experiment.build
         (Experiment.setup ~faults:(Experiment.Kill_switches [ 5 ])
            (Experiment.Torus3d
               { dims = (4, 4, 3); terminals = 2; redundancy = 1 }))
     in
     let o, run =
       Helpers.with_provenance (fun () ->
           Experiment.run ~vcs:2 ~engine:"nue" built)
     in
     match (o.Experiment.table, run) with
     | Ok table, Some run -> (built, table, run)
     | _ -> Alcotest.fail "nue failed on the faulted torus")

let all_explanations table run =
  let buf = Buffer.create (1 lsl 16) in
  Array.iter
    (fun dst ->
       Array.iter
         (fun src ->
            if src <> dst then
              match Provenance.explain run table ~src ~dst with
              | Some e ->
                Buffer.add_string buf
                  (Provenance.explanation_to_string table e)
              | None ->
                Alcotest.failf "no explanation for pair %d -> %d" src dst)
         table.Table.dests)
    table.Table.dests;
  Buffer.contents buf

let trails_cover_every_destination () =
  let _, table, run = Lazy.force recorded_run in
  Alcotest.(check int) "one trail per routed destination"
    (Array.length table.Table.dests)
    (Array.length run.Provenance.r_trails);
  Array.iter
    (fun (t : Provenance.trail) ->
       Alcotest.(check bool) "trail destination is routed" true
         (Array.exists (fun d -> d = t.Provenance.t_dest) table.Table.dests))
    run.Provenance.r_trails

let trails_deterministic () =
  (* Identical seeded runs must produce byte-identical rendered trails
     (the recorder sits on the deterministic routing path and adds no
     nondeterminism of its own). *)
  let _, table1, run1 = Lazy.force recorded_run in
  let built =
    Experiment.build
      (Experiment.setup ~faults:(Experiment.Kill_switches [ 5 ])
         (Experiment.Torus3d
            { dims = (4, 4, 3); terminals = 2; redundancy = 1 }))
  in
  let o, run2 =
    Helpers.with_provenance (fun () ->
        Experiment.run ~vcs:2 ~engine:"nue" built)
  in
  match (o.Experiment.table, run2) with
  | Ok table2, Some run2 ->
    Alcotest.(check string) "rendered trails byte-identical"
      (all_explanations table1 run1)
      (all_explanations table2 run2)
  | _ -> Alcotest.fail "nue failed on re-run"

let explanations_agree_with_table () =
  let _, table, run = Lazy.force recorded_run in
  Array.iter
    (fun dst ->
       Array.iter
         (fun src ->
            if src <> dst then begin
              let path =
                match Table.path table ~src ~dest:dst with
                | Some p -> p
                | None -> Alcotest.failf "no path %d -> %d" src dst
              in
              match Provenance.explain run table ~src ~dst with
              | None -> Alcotest.failf "no explanation %d -> %d" src dst
              | Some e ->
                let hop_channels =
                  List.map
                    (fun h -> h.Provenance.h_channel)
                    e.Provenance.e_hops
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "hops match table %d -> %d" src dst)
                  path hop_channels;
                (* Every hop's deciding node is the channel's source. *)
                List.iter
                  (fun h ->
                     Alcotest.(check int) "hop node is channel source"
                       (Network.src table.Table.net h.Provenance.h_channel)
                       h.Provenance.h_node)
                  e.Provenance.e_hops
            end)
         table.Table.dests)
    table.Table.dests

let acceptance_pair_blocked_and_fallback () =
  (* The issue's acceptance scenario: on a seeded faulted torus at 1 VC
     there must exist a pair whose trail shows (1) an alternative the
     acyclicity check rejected, with the condition that fired, and (2) an
     escape-path fallback — while the reported path still matches the
     table exactly. The redundant 6x5x5 torus is the known fallback
     stress case (EXPERIMENTS.md, "124 of 300 destinations at k = 1"). *)
  let built =
    Experiment.build
      (Experiment.setup ~faults:(Experiment.Link_failures 0.01)
         (Experiment.Torus3d
            { dims = (6, 5, 5); terminals = 2; redundancy = 2 }))
  in
  let o, run =
    Helpers.with_provenance (fun () ->
        Experiment.run ~vcs:1 ~engine:"nue" built)
  in
  match (o.Experiment.table, run) with
  | Ok table, Some run ->
    let found = ref None in
    (try
       Array.iter
         (fun dst ->
            Array.iter
              (fun src ->
                 if src <> dst && !found = None then
                   match Provenance.explain run table ~src ~dst with
                   | Some e
                     when e.Provenance.e_escape_fallback
                          && List.exists
                               (fun h ->
                                  List.exists
                                    (fun (c, _) ->
                                       match c.Provenance.chk_subject with
                                       | Provenance.Cdg_edge v ->
                                         not (Complete_cdg.verdict_ok v)
                                       | _ -> false)
                                    h.Provenance.h_rejected)
                               e.Provenance.e_hops ->
                     found := Some (src, dst, e);
                     raise Exit
                   | _ -> ())
              table.Table.dests)
         table.Table.dests
     with Exit -> ());
    (match !found with
     | None ->
       Alcotest.fail
         "no pair with a blocked alternative and an escape fallback"
     | Some (src, dst, e) ->
       let path = Option.get (Table.path table ~src ~dest:dst) in
       Alcotest.(check (list int)) "fallback pair path matches table" path
         (List.map (fun h -> h.Provenance.h_channel) e.Provenance.e_hops);
       (* The rendered text names the condition and the fallback. *)
       let text = Provenance.explanation_to_string table e in
       let contains needle =
         let nl = String.length needle and tl = String.length text in
         let rec go i =
           i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
         in
         go 0
       in
       Alcotest.(check bool) "text reports the fallback" true
         (contains "escape fallback: YES");
       Alcotest.(check bool) "text reports a blocked condition" true
         (contains "BLOCKED (condition");
       (* The condition of every blocked CDG alternative is one of the
          paper's (a)-(d). *)
       List.iter
         (fun h ->
            List.iter
              (fun (c, _) ->
                 match c.Provenance.chk_subject with
                 | Provenance.Cdg_edge v ->
                   let cond = Complete_cdg.verdict_condition v in
                   Alcotest.(check bool) "condition in a..d" true
                     (cond >= 'a' && cond <= 'd')
                 | _ -> ())
              h.Provenance.h_rejected)
         e.Provenance.e_hops)
  | _ -> Alcotest.fail "nue failed on the fallback stress case"

let disabled_recorder_does_not_allocate () =
  (* The zero-cost discipline: with the recorder off, the hook sites
     must not allocate (the enabled() test reads one mutable bool; the
     argument records are built only under the flag). Compare the minor
     allocation of two identical disabled-path routing runs — any hook
     allocating per call would show up as a difference vs itself, so
     instead check record_* calls are no-ops allocation-wise. *)
  Alcotest.(check bool) "recorder starts disabled" false
    (Provenance.enabled ());
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Provenance.record_check ~channel:i ~onto:(i + 1) ~state_before:0
      Provenance.No_edge;
    Provenance.record_finalize ~node:i ~channel:i ~dist:1.0
      ~via:Provenance.Dijkstra
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "disabled record hooks allocation-free" true
    (w1 -. w0 < 256.0)

let recording_does_not_change_routing () =
  let built = Helpers.random_built ~seed:23 () in
  let route () =
    match (Experiment.run ~vcs:2 ~engine:"nue" built).Experiment.table with
    | Ok t -> t
    | Error _ -> Alcotest.fail "nue failed"
  in
  let plain = route () in
  let recorded, run = Helpers.with_provenance route in
  Alcotest.(check bool) "a run was recorded" true (run <> None);
  Array.iteri
    (fun pos per_node ->
       Alcotest.(check (array int)) "identical next_channel"
         plain.Table.next_channel.(pos) per_node)
    recorded.Table.next_channel

(* {1 DOT structural checking}

   Enough validation to catch broken emitters without graphviz: brace
   balance, and every edge endpoint referring to a declared node id. *)

let check_dot ~name dot =
  let depth = ref 0 in
  String.iter
    (fun c ->
       if c = '{' then incr depth
       else if c = '}' then begin
         decr depth;
         if !depth < 0 then Alcotest.failf "%s: unbalanced '}'" name
       end)
    dot;
  Alcotest.(check int) (name ^ ": balanced braces") 0 !depth;
  let declared = Hashtbl.create 64 in
  let is_id_char c =
    (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
    || (c >= 'A' && c <= 'Z') || c = '_'
  in
  (* Labels may contain arbitrary text (including "->"); strip quoted
     segments before structural scanning. *)
  let strip_quotes line =
    let buf = Buffer.create (String.length line) in
    let in_q = ref false in
    String.iter
      (fun c ->
         if c = '"' then in_q := not !in_q
         else if not !in_q then Buffer.add_char buf c)
      line;
    Buffer.contents buf
  in
  let lines = List.map strip_quotes (String.split_on_char '\n' dot) in
  (* First pass: node declarations ("  id [" or bare "  id;"). *)
  List.iter
    (fun line ->
       let line = String.trim line in
       let n = String.length line in
       let rec ident i = if i < n && is_id_char line.[i] then ident (i + 1) else i in
       let e = ident 0 in
       if e > 0 && e < n then begin
         let rest = String.trim (String.sub line e (n - e)) in
         if String.length rest > 0 && (rest.[0] = '[' || rest.[0] = ';') then
           Hashtbl.replace declared (String.sub line 0 e) ()
       end)
    lines;
  (* Second pass: edges ("a -> b" / "a -- b"); endpoints must be
     declared. *)
  List.iter
    (fun line ->
       let line = String.trim line in
       let n = String.length line in
       let rec find_edge i =
         if i + 1 >= n then None
         else if
           (line.[i] = '-' && i + 1 < n
            && (line.[i + 1] = '>' || line.[i + 1] = '-'))
           && i > 0
         then Some i
         else find_edge (i + 1)
       in
       match find_edge 0 with
       | None -> ()
       | Some i ->
         let rec skip_sp j = if j > 0 && line.[j - 1] = ' ' then skip_sp (j - 1) else j in
         let rec back j = if j > 0 && is_id_char line.[j - 1] then back (j - 1) else j in
         let lhs_end = skip_sp i in
         let lhs_start = back lhs_end in
         let lhs = String.sub line lhs_start (lhs_end - lhs_start) in
         let rec fwd j = if j < n && line.[j] = ' ' then fwd (j + 1) else j in
         let rstart = fwd (i + 2) in
         let rec ident j = if j < n && is_id_char line.[j] then ident (j + 1) else j in
         let rend = ident rstart in
         let rhs = String.sub line rstart (rend - rstart) in
         if lhs = "" || rhs = "" then
           Alcotest.failf "%s: malformed edge line %S" name line;
         if not (Hashtbl.mem declared lhs) then
           Alcotest.failf "%s: edge references undeclared node %S" name lhs;
         if not (Hashtbl.mem declared rhs) then
           Alcotest.failf "%s: edge references undeclared node %S" name rhs)
    lines

let network_dot_well_formed () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  check_dot ~name:"network" (Serialize.to_dot net);
  check_dot ~name:"network+labels" (Serialize.to_dot ~channel_labels:true net)

let fault_overlay_dot_well_formed () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let remap = Fault.remove_switches net [ 5 ] in
  let failed_switches, failed_links = Fault.removed net remap in
  Alcotest.(check (list int)) "removed switch recovered" [ 5 ] failed_switches;
  Alcotest.(check (list (pair int int))) "no surviving-endpoint links cut" []
    failed_links;
  let dot = Serialize.to_dot ~failed_switches ~failed_links net in
  check_dot ~name:"fault-overlay" dot;
  (* The failed switch is visibly faded. *)
  let contains needle s =
    let nl = String.length needle and tl = String.length s in
    let rec go i = i + nl <= tl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "failed switch rendered dashed" true
    (contains "n5 [shape=box, label=\"s5\", style=\"filled,dashed\"" dot);
  (* Cut links: removing one duplex link fades exactly that edge. *)
  let pairs = Network.duplex_pairs net in
  let u, v =
    (* First switch-to-switch link. *)
    let rec first i =
      let a, b = pairs.(i) in
      if Network.is_switch net a && Network.is_switch net b then (a, b)
      else first (i + 1)
    in
    first 0
  in
  let remap2 = Fault.remove_links net [ (u, v) ] in
  let fs2, fl2 = Fault.removed net remap2 in
  Alcotest.(check (list int)) "no switch removed" [] fs2;
  Alcotest.(check (list (pair int int))) "cut link recovered"
    [ (min u v, max u v) ]
    fl2;
  check_dot ~name:"link-overlay" (Serialize.to_dot ~failed_links:fl2 net)

let cdg_dot_well_formed () =
  let _, table, run = Lazy.force recorded_run in
  let cap = run.Provenance.r_layers.(0) in
  let dot =
    Complete_cdg.to_dot ~escape:cap.Provenance.l_escape_channels
      cap.Provenance.l_cdg
  in
  check_dot ~name:"complete-cdg" dot;
  (* With a pair-path overlay. *)
  let dst = table.Table.dests.(0) in
  let src = table.Table.dests.(Array.length table.Table.dests - 1) in
  (match Provenance.explain run table ~src ~dst with
   | Some e ->
     let channels =
       List.map (fun h -> h.Provenance.h_channel) e.Provenance.e_hops
     in
     check_dot ~name:"complete-cdg+path"
       (Complete_cdg.to_dot ~highlight_path:channels
          ~escape:cap.Provenance.l_escape_channels cap.Provenance.l_cdg)
   | None -> Alcotest.fail "no explanation for the overlay pair")

let witness_rendering_well_formed () =
  let _, table, _ = Lazy.force recorded_run in
  (* The renderer is independent of whether the cycle is real: feed it a
     small fabricated witness over existing channels. *)
  let cycle = [ (0, 0); (2, 0); (4, 1) ] in
  let text = Verify.render_cycle table cycle in
  let contains needle s =
    let nl = String.length needle and tl = String.length s in
    let rec go i = i + nl <= tl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text names the closing dependency" true
    (contains "closing the cycle" text);
  Alcotest.(check bool) "text names channel and vl" true
    (contains "c4" text && contains "vl 1" text);
  check_dot ~name:"witness" (Verify.cycle_to_dot table cycle);
  Alcotest.(check string) "empty witness renders a note"
    "empty dependency cycle (vacuously acyclic)\n"
    (Verify.render_cycle table [])

let json_parser_round_trips () =
  let v =
    Json.Obj
      [ ("schema", Json.Str "nue-bench/2");
        ("n", Json.Int 42);
        ("x", Json.Float 3.25);
        ("neg", Json.Int (-7));
        ("flag", Json.Bool true);
        ("none", Json.Null);
        ("text", Json.Str "line\nbreak \"quoted\" \\ back");
        ("items", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]
  in
  Alcotest.(check bool) "compact round-trip" true
    (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty round-trip" true
    (Json.of_string (Json.to_string_pretty v) = v);
  (match Json.of_string "{\"a\": 1e3}" with
   | Json.Obj [ ("a", Json.Float 1000.0) ] -> ()
   | _ -> Alcotest.fail "scientific notation");
  Alcotest.(check bool) "member" true
    (Json.member "n" v = Some (Json.Int 42));
  Alcotest.(check bool) "to_float_opt int" true
    (Json.to_float_opt (Json.Int 3) = Some 3.0);
  List.iter
    (fun bad ->
       match Json.of_string bad with
       | exception Json.Parse_error _ -> ()
       | _ -> Alcotest.failf "accepted malformed %S" bad)
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"open"; "1 2"; "" ]

let suite =
  [ ( "provenance",
    [ test_case "trails cover every destination" `Quick
        trails_cover_every_destination;
      test_case "trails deterministic across identical runs" `Quick
        trails_deterministic;
      test_case "explanations agree with the table" `Quick
        explanations_agree_with_table;
      test_case "faulted torus shows blocked alternative + fallback" `Slow
        acceptance_pair_blocked_and_fallback;
      test_case "disabled recorder does not allocate" `Quick
        disabled_recorder_does_not_allocate;
      test_case "recording does not change routing" `Quick
        recording_does_not_change_routing;
      test_case "network DOT well-formed" `Quick network_dot_well_formed;
      test_case "fault overlay DOT well-formed" `Quick
        fault_overlay_dot_well_formed;
      test_case "CDG DOT well-formed" `Quick cdg_dot_well_formed;
      test_case "witness rendering well-formed" `Quick
        witness_rendering_well_formed;
      test_case "JSON parser round-trips" `Quick json_parser_round_trips ] ) ]
