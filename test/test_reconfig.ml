(* Tests for the online-reconfiguration subsystem (lib/reconfig):
   seeded event streams and their replay format, link-repair inversion,
   table lifting, union-CDG transition verification (including the
   classic two-individually-safe-tables-unsafe-transition example),
   incremental reroute selectivity, and mid-run table swaps in the
   simulator. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Engine = Nue_routing.Engine
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Prng = Nue_structures.Prng
module Event = Nue_reconfig.Event
module Transition = Nue_reconfig.Transition
module Reconfig = Nue_reconfig.Reconfig

let test_case = Alcotest.test_case

let torus332 () =
  (Topology.torus3d ~dims:(3, 3, 2) ~terminals_per_switch:1 ()).Topology.net

(* {1 Event streams} *)

let stream_deterministic () =
  let net = torus332 () in
  let gen seed =
    Event.stream_to_string
      (Event.random_churn (Prng.create seed) net ~events:16)
  in
  Alcotest.(check string) "same seed, same stream" (gen 7) (gen 7);
  Alcotest.(check bool) "different seed, different stream" true
    (gen 7 <> gen 8);
  let burst seed =
    Event.stream_to_string (Event.burst_outage (Prng.create seed) net ~fail:4)
  in
  Alcotest.(check string) "burst deterministic" (burst 3) (burst 3);
  let flap seed =
    Event.stream_to_string
      (Event.flapping_link (Prng.create seed) net ~flaps:3)
  in
  Alcotest.(check string) "flap deterministic" (flap 3) (flap 3)

let stream_shapes () =
  let net = torus332 () in
  let burst = Event.burst_outage (Prng.create 5) net ~fail:3 in
  Alcotest.(check int) "burst: fails then repairs" 6 (List.length burst);
  let fails, repairs = List.partition Event.is_fail burst in
  Alcotest.(check int) "3 fails" 3 (List.length fails);
  Alcotest.(check int) "3 repairs" 3 (List.length repairs);
  (* Burst repairs in reverse order of failure. *)
  let fail_pairs = List.map Event.endpoints fails in
  let repair_pairs = List.map Event.endpoints repairs in
  Alcotest.(check bool) "repairs reverse fails" true
    (List.rev fail_pairs = repair_pairs);
  let flaps = Event.flapping_link (Prng.create 5) net ~flaps:4 in
  Alcotest.(check int) "flap count" 8 (List.length flaps);
  (match flaps with
   | Event.Fail (u, v) :: Event.Repair (u', v') :: _ ->
     Alcotest.(check (pair int int)) "flap same link" (u, v) (u', v')
   | _ -> Alcotest.fail "flap stream must alternate fail/repair")

let replay_roundtrip () =
  let net = torus332 () in
  let evs = Event.random_churn (Prng.create 9) net ~events:12 in
  (match Event.stream_of_string (Event.stream_to_string evs) with
   | Ok back -> Alcotest.(check bool) "round-trips" true (back = evs)
   | Error msg -> Alcotest.failf "replay failed: %s" msg);
  (match Event.stream_of_string "# comment\n\nfail 1 2\nrepair 1 2\n" with
   | Ok evs ->
     Alcotest.(check bool) "comments and blanks skipped" true
       (evs = [ Event.Fail (1, 2); Event.Repair (1, 2) ])
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  match Event.stream_of_string "fail 1 2\nbogus line\n" with
  | Ok _ -> Alcotest.fail "malformed line must be rejected"
  | Error msg ->
    Alcotest.(check bool) "error names the line" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

(* {1 Fault.random_link_repairs} *)

let repairs_deterministic () =
  let net = torus332 () in
  let degrade seed = Fault.random_link_failures (Prng.create seed) net ~fraction:0.3 in
  let removed_links remap = snd (Fault.removed net remap) in
  let r1 = degrade 4 and r2 = degrade 4 in
  Alcotest.(check bool) "failures deterministic" true
    (removed_links r1 = removed_links r2);
  let rep seed remap =
    Fault.random_link_repairs (Prng.create seed) ~base:net remap ~fraction:0.5
  in
  Alcotest.(check bool) "repairs deterministic" true
    (removed_links (rep 11 r1) = removed_links (rep 11 r2));
  (* Repairing restores: strictly fewer links cut afterwards. *)
  Alcotest.(check bool) "repair restores some links" true
    (List.length (removed_links (rep 11 r1)) < List.length (removed_links r1))

let full_repair_restores_base () =
  let net = torus332 () in
  let remap = Fault.random_link_failures (Prng.create 4) net ~fraction:0.3 in
  let healed =
    Fault.random_link_repairs (Prng.create 1) ~base:net remap ~fraction:1.0
  in
  Alcotest.(check int) "all channels back"
    (Network.num_channels net)
    (Network.num_channels healed.Fault.net);
  Alcotest.(check (pair (list int) (list (pair int int))))
    "nothing removed" ([], [])
    (Fault.removed net healed)

(* {1 Lifting} *)

let lift_preserves_paths () =
  let net = torus332 () in
  let evs = Event.random_churn (Prng.create 2) net ~events:1 in
  let u, v = Event.endpoints (List.hd evs) in
  let remap = Fault.remove_links net [ (u, v) ] in
  match Engine.route "nue" (Engine.spec ~vcs:2 remap.Fault.net) with
  | Error e ->
    Alcotest.failf "routing failed: %s" (Nue_routing.Engine_error.to_string e)
  | Ok degraded_table ->
    let lifted = Reconfig.lift ~base:net remap degraded_table in
    Alcotest.(check bool) "lifted on base" true (lifted.Table.net == net);
    (* Link-only faults keep node ids, so the hop-by-hop node sequences
       must be identical between the two coordinate systems. *)
    let terms = Network.terminals net in
    Array.iter
      (fun src ->
         Array.iter
           (fun dest ->
              if src <> dest then
                let p1 =
                  Table.path_nodes degraded_table ~src ~dest
                and p2 = Table.path_nodes lifted ~src ~dest in
                Alcotest.(check bool)
                  (Printf.sprintf "same node path %d->%d" src dest)
                  true (p1 = p2))
           terms)
      terms;
    let report = Verify.check lifted in
    Alcotest.(check bool) "lifted connected" true report.Verify.connected;
    Alcotest.(check bool) "lifted deadlock-free" true
      report.Verify.deadlock_free

(* {1 Parallel copies}

   Switches 0 and 9 of the redundancy-2 3x3x3 torus are joined by links
   0 and 1 (channels 0-3); cutting the pair cuts link 0 first. *)

let torus333_redundant () =
  (Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:1 ~redundancy:2 ())
    .Topology.net

let uses_channel (t : Table.t) c =
  Array.exists (Array.exists (( = ) c)) t.Table.next_channel

(* No row of [t] names a channel of a link the remap cut. *)
let avoids_cut (remap : Fault.remap) (t : Table.t) =
  Array.for_all
    (Array.for_all (fun c ->
         c < 0 || not (Nue_structures.Bitset.mem remap.Fault.dead_links (c / 2))))
    t.Table.next_channel

let lift_avoids_cut_copy () =
  let net = torus333_redundant () in
  let pairs = Network.duplex_pairs net in
  Alcotest.(check (list (pair int int))) "links 0 and 1 join 0 and 9"
    [ (0, 9); (0, 9) ] [ pairs.(0); pairs.(1) ];
  let remap = Fault.remove_links net [ (0, 9) ] in
  Alcotest.(check (list (pair int int))) "removed lists the pair once"
    [ (0, 9) ] (snd (Fault.removed net remap));
  match Engine.route "nue" (Engine.spec ~vcs:2 remap.Fault.net) with
  | Error e ->
    Alcotest.failf "routing failed: %s" (Nue_routing.Engine_error.to_string e)
  | Ok degraded ->
    let lifted = Reconfig.lift ~base:net remap degraded in
    Alcotest.(check bool) "cut copy unused" false
      (uses_channel lifted 0 || uses_channel lifted 1);
    Alcotest.(check bool) "surviving copy used" true
      (uses_channel lifted 2 || uses_channel lifted 3)

(* Fail both copies of the pair, then repair them: every table passes
   Verify and avoids the copies cut at its step. *)
let fail_repair_parallel_copies () =
  let net = torus333_redundant () in
  match Reconfig.init ~vcs:2 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    let step state (event, cut) =
      match Reconfig.apply state event with
      | Error msg -> Alcotest.failf "%s: %s" (Event.to_string event) msg
      | Ok (state, _) ->
        let what = Event.to_string event in
        let report = Verify.check state.Reconfig.table in
        Alcotest.(check bool) (what ^ ": connected") true report.Verify.connected;
        Alcotest.(check bool) (what ^ ": deadlock-free") true
          report.Verify.deadlock_free;
        Alcotest.(check (list (pair int int))) (what ^ ": cut copies") cut
          (snd (Fault.removed net state.Reconfig.remap));
        Alcotest.(check bool) (what ^ ": avoids the cut copies") true
          (avoids_cut state.Reconfig.remap state.Reconfig.table);
        state
    in
    ignore
      (List.fold_left step state
         [ (Event.Fail (0, 9), [ (0, 9) ]);
           (Event.Fail (9, 0), [ (0, 9); (0, 9) ]);
           (Event.Repair (0, 9), [ (0, 9) ]);
           (Event.Repair (9, 0), []) ])

let churn_parallel_copies () =
  let net = torus333_redundant () in
  match Reconfig.init ~vcs:2 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    let events =
      [ Event.Fail (0, 9); Event.Fail (0, 9); Event.Repair (0, 9);
        Event.Repair (0, 9) ]
    in
    (match
       Reconfig.simulate_churn ~interval:300 ~warmup:200 ~message_bytes:256
         state events
     with
     | Error msg -> Alcotest.failf "churn failed: %s" msg
     | Ok churn ->
       let o = churn.Reconfig.outcome in
       Alcotest.(check bool) "no deadlock" false o.Sim.deadlock;
       Alcotest.(check int) "every packet delivered" o.Sim.total_packets
         o.Sim.delivered_packets)

(* {1 Transition verification} *)

(* The classic counterexample: on a 4-switch ring, one table holds the
   two clockwise dependencies 01->12 and 23->30, the other the two
   clockwise dependencies 12->23 and 30->01. Each is individually
   acyclic (deadlock-free), but a live transition lets packets of both
   generations coexist and the union closes the ring: deadlock. *)
let ring4 () = Helpers.ring 4

let ch net u v =
  match Network.find_channel net u v with
  | Some c -> c
  | None -> Alcotest.failf "no channel %d -> %d" u v

(* Build a destination-based table on the 4-ring from a route choice
   per (switch, dest-terminal) pair: [via.(s).(d)] is the next node on
   the path from switch s toward terminal (4 + d). *)
let ring4_table net name via =
  let dests = Network.terminals net in
  let n = Network.num_nodes net in
  let next_channel =
    Array.mapi
      (fun pos dest ->
         let row = Array.make n (-1) in
         let dsw = dest - 4 in
         for t = 4 to 7 do
           (* Terminals inject toward their switch. *)
           if t <> dest then row.(t) <- ch net t (t - 4)
         done;
         for s = 0 to 3 do
           if s = dsw then row.(s) <- ch net s dest
           else row.(s) <- ch net s via.(s).(dsw)
         done;
         ignore pos;
         row)
      dests
  in
  Table.make ~net ~algorithm:name ~dests:(Array.copy dests) ~next_channel
    ~vl:Table.All_zero ~num_vls:1 ()

let transition_counterexample () =
  let net = ring4 () in
  (* old: t2 traffic from s0 goes clockwise via s1 (dep 01->12); t0
     traffic from s2 goes clockwise via s3 (dep 23->30); the distance-2
     routes for t1 and t3 go counter-clockwise. *)
  let old_via =
    [| (* from s0 toward t0 t1 t2 t3 *) [| -1; 1; 1; 3 |];
       (* from s1 *) [| 0; -1; 2; 0 |];
       (* from s2 *) [| 3; 1; -1; 3 |];
       (* from s3 *) [| 0; 2; 2; -1 |] |]
  in
  (* new: t3 traffic from s1 now goes clockwise via s2 (dep 12->23); t1
     traffic from s3 clockwise via s0 (dep 30->01); t0's distance-2
     route flips counter-clockwise so the new table stays acyclic. *)
  let new_via =
    [| [| -1; 1; 1; 3 |];
       [| 0; -1; 2; 2 |];
       [| 1; 1; -1; 3 |];
       [| 0; 0; 2; -1 |] |]
  in
  let old_table = ring4_table net "old" old_via in
  let new_table = ring4_table net "new" new_via in
  Alcotest.(check bool) "old table deadlock-free" true
    (Verify.deadlock_free old_table);
  Alcotest.(check bool) "new table deadlock-free" true
    (Verify.deadlock_free new_table);
  Alcotest.(check bool) "old table connected" true (Verify.connected old_table);
  Alcotest.(check bool) "new table connected" true (Verify.connected new_table);
  match Transition.verify ~old_table ~new_table with
  | Transition.Safe -> Alcotest.fail "transition must be unsafe"
  | Transition.Unsafe { cycle; rendered; drain } ->
    Alcotest.(check bool) "witness cycle nonempty" true (cycle <> []);
    (* The mixed cycle closes the clockwise ring: 4 units. *)
    Alcotest.(check int) "witness is the 4-ring" 4 (List.length cycle);
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "rendering explains the wait" true
      (contains rendered "waits for");
    Alcotest.(check bool) "staged drain plan nonempty" true
      (Array.length drain > 0);
    (* t2's rows are identical in both tables, so it is not drained. *)
    Alcotest.(check bool) "unchanged dest not drained" true
      (not (Array.exists (fun d -> d = 6) drain))

let transition_safe_on_identity () =
  let net = ring4 () in
  let via =
    [| [| -1; 1; 1; 3 |]; [| 0; -1; 2; 0 |]; [| 3; 1; -1; 3 |];
       [| 0; 2; 2; -1 |] |]
  in
  let t = ring4_table net "t" via in
  (match Transition.verify ~old_table:t ~new_table:t with
   | Transition.Safe -> ()
   | Transition.Unsafe _ -> Alcotest.fail "identity transition must be safe");
  Alcotest.(check int) "no changed dests" 0
    (Array.length (Transition.changed_dests ~old_table:t ~new_table:t))

(* {1 Incremental reroute} *)

let incremental_single_link () =
  let net = torus332 () in
  match Reconfig.init ~vcs:4 ~seed:1 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    (* A handful of distinct single-link failures: on average they must
       stay under the half-the-destinations bar (Nue concentrates
       routes near the escape root, so an individual link can exceed
       it) and each must produce a valid table; the incremental path
       must stick for most (a replay conflict can push an individual
       case to the full-reroute fallback). *)
    let candidates =
      Array.to_list (Network.duplex_pairs net)
      |> List.filter (fun (u, v) ->
             Network.is_switch net u && Network.is_switch net v
             && (match Fault.remove_links net [ (u, v) ] with
                 | _ -> true
                 | exception Invalid_argument _ -> false))
      |> List.filteri (fun i _ -> i < 6)
    in
    Alcotest.(check bool) "candidates found" true (candidates <> []);
    let incremental = ref 0 in
    let fractions = ref [] in
    List.iter
      (fun (u, v) ->
         match Reconfig.apply state (Event.Fail (u, v)) with
         | Error msg -> Alcotest.failf "apply failed: %s" msg
         | Ok (state', step) ->
           Alcotest.(check bool) "some dests affected" true
             (Array.length step.Reconfig.affected > 0);
           fractions := step.Reconfig.affected_fraction :: !fractions;
           if step.Reconfig.kind = Reconfig.Incremental then
             incr incremental;
           let report = Verify.check state'.Reconfig.table in
           Alcotest.(check bool) "new table connected" true
             report.Verify.connected;
           Alcotest.(check bool) "new table deadlock-free" true
             report.Verify.deadlock_free;
           Alcotest.(check int) "one failed link" 1
             (List.length (snd (Fault.removed net state'.Reconfig.remap)));
           (* Fail then repair returns to an intact network. *)
           match Reconfig.apply state' (Event.Repair (u, v)) with
           | Error msg -> Alcotest.failf "repair failed: %s" msg
           | Ok (state'', _) ->
             Alcotest.(check int) "no failed links" 0
               (List.length (snd (Fault.removed net state''.Reconfig.remap)));
             Alcotest.(check int) "all channels restored"
               (Network.num_channels net)
               (Network.num_channels state''.Reconfig.remap.Fault.net))
      candidates;
    (* The acceptance bar: single-link failures reroute fewer than half
       the destinations on average. *)
    let mean =
      List.fold_left ( +. ) 0.0 !fractions
      /. float_of_int (List.length !fractions)
    in
    Alcotest.(check bool) "mean affected fraction under 0.5" true (mean < 0.5);
    Alcotest.(check bool) "incremental path taken more often than not" true
      (2 * !incremental > List.length candidates)

let repair_of_intact_link_rejected () =
  let net = torus332 () in
  match Reconfig.init ~vcs:2 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    (match Reconfig.apply state (Event.Repair (0, 1)) with
     | Ok _ -> Alcotest.fail "repairing an intact link must fail"
     | Error _ -> ())

(* {1 Simulator swaps} *)

let swap_records_sanity () =
  let net = torus332 () in
  match Reconfig.init ~vcs:2 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    let table = state.Reconfig.table in
    let traffic =
      List.concat
        (List.init 6 (fun _ -> Traffic.all_to_all_shift net ~message_bytes:512))
    in
    let direct = { Sim.at_cycle = 100; table; staged = false } in
    let staged = { Sim.at_cycle = 400; table; staged = true } in
    let out, telem, records =
      Sim.run_with_swaps table ~swaps:[ direct; staged ] ~traffic
    in
    Alcotest.(check bool) "no telemetry requested" true (telem = None);
    Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
    Alcotest.(check int) "all delivered" out.Sim.total_packets
      out.Sim.delivered_packets;
    (match records with
     | [ r1; r2 ] ->
       Alcotest.(check int) "direct requested at 100" 100 r1.Sim.swap_at;
       Alcotest.(check int) "direct activates immediately" 100
         r1.Sim.activated_at;
       Alcotest.(check bool) "direct saw traffic in flight" true
         (r1.Sim.in_flight_packets > 0);
       Alcotest.(check bool) "direct drains later" true
         (r1.Sim.drained_at >= r1.Sim.swap_at);
       Alcotest.(check int) "staged requested at 400" 400 r2.Sim.swap_at;
       (* A staged swap activates only once the fabric is empty. *)
       Alcotest.(check bool) "staged activates after drain" true
         (r2.Sim.activated_at >= r2.Sim.drained_at
          && r2.Sim.drained_at >= r2.Sim.swap_at)
     | _ -> Alcotest.failf "expected 2 swap records, got %d"
              (List.length records))

let swap_rejects_foreign_table () =
  let net = torus332 () in
  let other = Helpers.ring 4 in
  match (Reconfig.init ~vcs:2 net, Reconfig.init ~vcs:2 other) with
  | Ok s1, Ok s2 ->
    let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
    Alcotest.check_raises "foreign swap table rejected"
      (Invalid_argument
         "Sim.run_with_swaps: swap table is not on the same network")
      (fun () ->
         ignore
           (Sim.run_with_swaps s1.Reconfig.table
              ~swaps:
                [ { Sim.at_cycle = 10; table = s2.Reconfig.table;
                    staged = false } ]
              ~traffic))
  | _ -> Alcotest.fail "init failed"

(* {1 End-to-end churn} *)

let churn_end_to_end () =
  let net = torus332 () in
  match Reconfig.init ~vcs:2 ~seed:1 net with
  | Error msg -> Alcotest.failf "init failed: %s" msg
  | Ok state ->
    let stream = Event.random_churn (Prng.create 13) net ~events:10 in
    Alcotest.(check int) "stream complete" 10 (List.length stream);
    (match
       Reconfig.simulate_churn ~interval:400 ~warmup:200 ~message_bytes:512
         state stream
     with
     | Error msg -> Alcotest.failf "churn failed: %s" msg
     | Ok churn ->
       Alcotest.(check int) "one step per event" 10
         (List.length churn.Reconfig.steps);
       Alcotest.(check int) "one swap record per step" 10
         (List.length churn.Reconfig.swap_records);
       Alcotest.(check bool) "zero transition deadlocks" false
         churn.Reconfig.outcome.Sim.deadlock;
       Alcotest.(check int) "all packets delivered"
         churn.Reconfig.outcome.Sim.total_packets
         churn.Reconfig.outcome.Sim.delivered_packets;
       (* Every intermediate table is a valid routing of its epoch. *)
       List.iter
         (fun (s : Reconfig.step) ->
            let r = Verify.check s.Reconfig.table in
            Alcotest.(check bool) "step table connected" true
              r.Verify.connected;
            Alcotest.(check bool) "step table deadlock-free" true
              r.Verify.deadlock_free)
         churn.Reconfig.steps;
       (* Every requested swap eventually activated under load. *)
       List.iter
         (fun (r : Sim.swap_record) ->
            Alcotest.(check bool) "swap activated" true
              (r.Sim.activated_at >= r.Sim.swap_at))
         churn.Reconfig.swap_records;
       let json =
         Nue_pipeline.Json.to_string (Reconfig.churn_to_json churn)
       in
       (* The JSON summary round-trips through the parser. *)
       (match Nue_pipeline.Json.of_string json with
        | _ -> ()
        | exception Nue_pipeline.Json.Parse_error msg ->
          Alcotest.failf "churn JSON malformed: %s" msg))

let suite =
  [ ("reconfig:events",
     [ test_case "seeded streams deterministic" `Quick stream_deterministic;
       test_case "burst and flap shapes" `Quick stream_shapes;
       test_case "replay round-trip" `Quick replay_roundtrip ]);
    ("reconfig:repairs",
     [ test_case "repairs deterministic" `Quick repairs_deterministic;
       test_case "full repair restores base" `Quick full_repair_restores_base ]);
    ("reconfig:parallel",
     [ test_case "lift avoids the cut copy" `Quick lift_avoids_cut_copy;
       test_case "fail and repair both copies" `Quick
         fail_repair_parallel_copies;
       test_case "churn delivers every packet" `Quick churn_parallel_copies ]);
    ("reconfig:transition",
     [ test_case "lift preserves paths" `Quick lift_preserves_paths;
       test_case "union-CDG counterexample" `Quick transition_counterexample;
       test_case "identity transition safe" `Quick transition_safe_on_identity ]);
    ("reconfig:planner",
     [ test_case "incremental single link" `Quick incremental_single_link;
       test_case "repair of intact link rejected" `Quick
         repair_of_intact_link_rejected ]);
    ("reconfig:sim",
     [ test_case "swap records sanity" `Quick swap_records_sanity;
       test_case "foreign swap table rejected" `Quick
         swap_rejects_foreign_table;
       test_case "churn end to end" `Slow churn_end_to_end ]) ]
