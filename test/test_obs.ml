(* Tests for the observability layer (Nue_obs.Obs): registry
   idempotence, disabled-path semantics (no counting, no allocation,
   identical routing results), snapshot/reset round-trips, and the
   stability of the JSON rendering under key ordering. *)

module Obs = Nue_obs.Obs
module Experiment = Nue_pipeline.Experiment
module Json = Nue_pipeline.Json
module Table = Nue_routing.Table
module Nue = Nue_core.Nue

let test_case = Alcotest.test_case

(* Every test leaves the registry disabled and zeroed so instrumented
   production code never bleeds counts between tests. *)
let scrub () =
  Obs.disable ();
  Obs.reset ()

let registration_idempotent () =
  scrub ();
  let a = Obs.counter "test.obs.idem" in
  let b = Obs.counter "test.obs.idem" in
  Obs.enable ();
  Obs.incr a;
  Obs.incr b;
  Obs.add a 3;
  scrub ();
  (* peek reads through the shared cell regardless of the flag... *)
  Alcotest.(check int) "after reset" 0 (Obs.peek a);
  Obs.enable ();
  Obs.incr a;
  Alcotest.(check int) "one cell behind both handles" 1 (Obs.peek b);
  scrub ()

let disabled_counts_nothing () =
  scrub ();
  let c = Obs.counter "test.obs.disabled" in
  Obs.incr c;
  Obs.add c 1000;
  Alcotest.(check int) "no counting while disabled" 0 (Obs.peek c);
  let snap = Obs.snapshot () in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zero") 0 v)
    snap.Obs.counters;
  List.iter
    (fun (name, (t : Obs.timer_total)) ->
       Alcotest.(check int) (name ^ " no activations") 0 t.Obs.activations;
       Alcotest.(check (float 0.0)) (name ^ " no seconds") 0.0 t.Obs.seconds)
    snap.Obs.timers

let disabled_hot_path_does_not_allocate () =
  scrub ();
  let c = Obs.counter "test.obs.alloc" in
  let t = Obs.timer "test.obs.alloc_timer" in
  (* Warm up so the closure and any lazy setup are allocated before
     measuring. *)
  Obs.incr c;
  Obs.add c 2;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.incr c;
    Obs.add c 2
  done;
  let w1 = Gc.minor_words () in
  (* The two Gc.minor_words calls box a float each; anything beyond a
     small constant means the hot path allocates per call. *)
  Alcotest.(check bool) "incr/add allocation-free" true (w1 -. w0 < 256.0);
  (* Disabled [time] is a plain call: run a pre-allocated closure. *)
  let thunk () = 0 in
  let w2 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Obs.time t thunk)
  done;
  let w3 = Gc.minor_words () in
  Alcotest.(check bool) "disabled time allocation-free" true
    (w3 -. w2 < 256.0);
  Alcotest.(check int) "nothing counted" 0 (Obs.peek c)

let same_results_with_and_without_tracing () =
  (* The instrumentation must be observation-only: routing the same
     spec with tracing on and off yields the identical table. *)
  scrub ();
  let built = Helpers.random_built ~seed:21 () in
  let route () =
    match (Experiment.run ~vcs:4 ~engine:"nue" built).Experiment.table with
    | Ok t -> t
    | Error _ -> Alcotest.fail "nue failed"
  in
  let plain = route () in
  let traced, snap = Helpers.counted route in
  Alcotest.(check bool) "tracing captured work" true
    (Obs.find snap "cdg.usable_calls" > 0);
  Alcotest.(check int) "same vls" plain.Table.num_vls traced.Table.num_vls;
  Array.iteri
    (fun i plain_row ->
       Alcotest.(check (array int)) (Printf.sprintf "next_channel row %d" i)
         plain_row traced.Table.next_channel.(i))
    plain.Table.next_channel;
  Alcotest.(check bool) "flag restored" false (Obs.enabled ());
  scrub ()

let snapshot_reset_round_trip () =
  scrub ();
  let c = Obs.counter "test.obs.round" in
  let t = Obs.timer "test.obs.round_timer" in
  Obs.enable ();
  Obs.incr c;
  Obs.add c 41;
  ignore (Obs.time t (fun () -> 7));
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter snapshotted" 42
    (Obs.find snap "test.obs.round");
  Alcotest.(check int) "timer activations" 1
    (Obs.find_timer snap "test.obs.round_timer").Obs.activations;
  Alcotest.(check int) "absent counter reads 0" 0
    (Obs.find snap "test.obs.never_registered");
  Obs.reset ();
  let snap2 = Obs.snapshot () in
  Alcotest.(check int) "reset zeroes counter" 0
    (Obs.find snap2 "test.obs.round");
  Alcotest.(check int) "reset zeroes timer" 0
    (Obs.find_timer snap2 "test.obs.round_timer").Obs.activations;
  (* Registration survives the reset: the name still appears. *)
  Alcotest.(check bool) "name retained" true
    (List.mem_assoc "test.obs.round" snap2.Obs.counters);
  scrub ()

let timer_records_exceptions () =
  scrub ();
  let t = Obs.timer "test.obs.exn_timer" in
  Obs.enable ();
  (match Obs.time t (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "activation recorded" 1
    (Obs.find_timer (Obs.snapshot ()) "test.obs.exn_timer").Obs.activations;
  scrub ()

let snapshot_sorted_by_name () =
  scrub ();
  (* Register in anti-alphabetical order and mutate in a third order:
     the snapshot must come out sorted by name regardless. *)
  let z = Obs.counter "test.obs.zz" in
  let a = Obs.counter "test.obs.aa" in
  let m = Obs.counter "test.obs.mm" in
  Obs.enable ();
  Obs.incr m;
  Obs.incr z;
  Obs.incr a;
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.counters in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  scrub ()

let json_stable_under_key_ordering () =
  (* trace_to_json must not depend on the order of the snapshot's assoc
     lists: shuffled input renders to the identical string. *)
  let counters =
    [ ("cdg.usable_calls", 10); ("cdg.memo.hit_used", 4);
      ("cdg.memo.hit_blocked", 1); ("heap.inserts", 7); ("cdg.reorders", 3) ]
  in
  let timers =
    [ ("engine.nue", { Obs.seconds = 0.25; activations = 2 });
      ("engine.minhop", { Obs.seconds = 0.5; activations = 1 }) ]
  in
  let sort l = List.sort (fun (x, _) (y, _) -> compare x y) l in
  let snap_sorted = { Obs.counters = sort counters; timers = sort timers } in
  let snap_shuffled =
    { Obs.counters = List.rev counters; timers = List.rev timers }
  in
  Alcotest.(check string) "identical rendering"
    (Json.to_string (Experiment.trace_to_json snap_sorted))
    (Json.to_string (Experiment.trace_to_json snap_shuffled))

let trace_json_shape () =
  scrub ();
  let built = Helpers.random_built ~seed:5 () in
  let _, snap =
    Helpers.counted (fun () ->
        ignore (Experiment.run ~vcs:4 ~engine:"nue" built))
  in
  let s = Json.to_string (Experiment.trace_to_json snap) in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i =
      i + nl <= hl && (String.sub s i nl = needle || go (i + 1))
    in
    nl = 0 || go 0
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ {|"counters"|}; {|"timers"|}; {|"derived"|}; {|"omega_memo_hit_rate"|};
      {|"heap_ops"|}; {|"cdg.usable_calls"|}; {|"engine.nue"|} ];
  scrub ()

let derived_rates_are_ratios () =
  scrub ();
  let built = Helpers.random_built ~seed:9 () in
  let _, snap =
    Helpers.counted (fun () ->
        ignore (Experiment.run ~vcs:2 ~engine:"nue" built))
  in
  let hits =
    Obs.find snap "cdg.memo.hit_blocked" + Obs.find snap "cdg.memo.hit_used"
  in
  let calls = Obs.find snap "cdg.usable_calls" in
  let reorders = Obs.find snap "cdg.reorders"
  and decided = Obs.find snap "cdg.memo.miss_search" in
  Alcotest.(check bool) "calls observed" true (calls > 0);
  Alcotest.(check bool) "reorders observed" true (reorders > 0);
  (match Experiment.trace_to_json snap with
   | Json.Obj fields ->
     (match List.assoc "derived" fields with
      | Json.Obj derived ->
        let rate name num den =
          match List.assoc name derived with
          | Json.Float r ->
            Alcotest.(check (float 1e-9)) name
              (float_of_int num /. float_of_int den) r
          | _ -> Alcotest.failf "%s not a float" name
        in
        rate "omega_memo_hit_rate" hits calls;
        rate "cdg_reorder_rate" reorders decided
      | _ -> Alcotest.fail "no derived object")
   | _ -> Alcotest.fail "trace not an object");
  scrub ()

let suite =
  [ ("obs:registry",
     [ test_case "registration idempotent" `Quick registration_idempotent;
       test_case "disabled counts nothing" `Quick disabled_counts_nothing;
       test_case "disabled hot path allocation-free" `Quick
         disabled_hot_path_does_not_allocate;
       test_case "tracing is observation-only" `Quick
         same_results_with_and_without_tracing ]);
    ("obs:snapshot",
     [ test_case "snapshot/reset round-trip" `Quick snapshot_reset_round_trip;
       test_case "timer survives exceptions" `Quick timer_records_exceptions;
       test_case "sorted by name" `Quick snapshot_sorted_by_name ]);
    ("obs:json",
     [ test_case "stable under key ordering" `Quick
         json_stable_under_key_ordering;
       test_case "trace shape" `Quick trace_json_shape;
       test_case "derived rates" `Quick derived_rates_are_ratios ]) ]
