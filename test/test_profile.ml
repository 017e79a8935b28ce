(* Resource-attribution profiling (lib/obs/profile.ml).

   The load-bearing property is transparency: profiling only *reads*
   [Gc] statistics and the clock, so routing under the allocation view must
   produce the very same tables as routing without it — pinned here
   against the recorded fingerprints of test_compact.ml at jobs 1 and
   4. The rest checks the report's arithmetic: serial fraction and
   utilization in range, chunk-claim conservation across job counts,
   alloc attribution of nested spans, and the all-zeros report while
   disabled. *)

module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Experiment = Nue_pipeline.Experiment
module Pool = Nue_parallel.Pool
module Span = Nue_obs.Span
module Profile = Nue_obs.Profile

let () = Nue_core.Nue_engine.ensure_registered ()

let with_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* Bracket a test that drives Span/Profile by hand, restoring the
   disabled-at-startup state even on failure so later tests (and the
   disabled-cost tests in test_obs/test_span) see a clean slate. *)
let with_profiling f =
  Span.reset ();
  Span.enable ();
  Profile.enable ();
  Profile.reset ();
  Fun.protect
    ~finally:(fun () ->
      Profile.disable ();
      Span.disable ();
      Span.reset ())
    f

let route_fingerprint engine built =
  match Engine.route engine (Experiment.spec ~vcs:8 built) with
  | Error e -> Alcotest.failf "%s: %s" engine (Engine_error.to_string e)
  | Ok table -> Helpers.table_fingerprint table

(* {1 Profiling never changes a table} *)

let test_profiling_transparent () =
  List.iter
    (fun fixture ->
       let build = List.assoc fixture Test_compact.fixtures in
       let expected = List.assoc fixture Test_compact.recorded in
       List.iter
         (fun jobs ->
            with_jobs jobs @@ fun () ->
            let built = build () in
            List.iter
              (fun engine ->
                 let pinned = List.assoc engine expected in
                 let plain = route_fingerprint engine built in
                 let profiled, _prof =
                   Helpers.profiled (fun () ->
                       route_fingerprint engine built)
                 in
                 Alcotest.(check string)
                   (Printf.sprintf "%s/%s jobs=%d: plain = recorded" fixture
                      engine jobs)
                   pinned plain;
                 Alcotest.(check string)
                   (Printf.sprintf "%s/%s jobs=%d: profiled = recorded" fixture
                      engine jobs)
                   pinned profiled)
              [ "minhop"; "dfsssp"; "nue" ])
         [ 1; 4 ])
    [ "dense16"; "torus333" ]

(* {1 Report arithmetic} *)

let in_unit name v =
  if v < 0.0 || v > 1.0 then Alcotest.failf "%s = %g not in [0, 1]" name v

let rec check_node (n : Profile.alloc_node) =
  let nm = n.Profile.an_name in
  if n.Profile.an_calls < 1 then Alcotest.failf "%s: zero calls" nm;
  let pairs =
    [ ("seconds", n.Profile.an_seconds, n.Profile.an_self_seconds);
      ("minor", n.Profile.an_minor_words, n.Profile.an_self_minor_words);
      ("major", n.Profile.an_major_words, n.Profile.an_self_major_words) ]
  in
  List.iter
    (fun (what, incl, self) ->
       if self < 0.0 || incl < self then
         Alcotest.failf "%s: %s inclusive %g < self %g" nm what incl self)
    pairs;
  if n.Profile.an_promoted_words < 0.0 then
    Alcotest.failf "%s: negative promotions" nm;
  List.iter check_node n.Profile.an_children

let test_report_sanity () =
  with_jobs 4 @@ fun () ->
  let built = Helpers.dense_random_built () in
  let _fp, p =
    Helpers.profiled (fun () -> route_fingerprint "nue" built)
  in
  in_unit "serial_fraction" p.Profile.p_serial_fraction;
  in_unit "utilization" p.Profile.p_utilization;
  if p.Profile.p_serial_seconds < 0.0
     || p.Profile.p_wall_seconds < p.Profile.p_serial_seconds then
    Alcotest.failf "wall %g < serial %g" p.Profile.p_wall_seconds
      p.Profile.p_serial_seconds;
  if p.Profile.p_parallel_busy_seconds < 0.0 then
    Alcotest.fail "negative parallel busy";
  if p.Profile.p_max_jobs < 2 then
    Alcotest.failf "max_jobs %d: no multi-domain region at jobs=4"
      p.Profile.p_max_jobs;
  (match
     List.find_opt
       (fun (r : Profile.pool_region) -> r.Profile.pr_label = "nue.round")
       p.Profile.p_regions
   with
   | None -> Alcotest.fail "no nue.round pool region recorded"
   | Some _ -> ());
  List.iter
    (fun (r : Profile.pool_region) ->
       if r.Profile.pr_t1 < r.Profile.pr_t0 then
         Alcotest.failf "%s: region ends before it starts" r.Profile.pr_label;
       Alcotest.(check int)
         (r.Profile.pr_label ^ ": worker array matches jobs")
         r.Profile.pr_jobs
         (Array.length r.Profile.pr_workers);
       Array.iter
         (fun (w : Profile.worker_sample) ->
            if w.Profile.ws_busy_seconds < 0.0 || w.Profile.ws_chunks < 0 then
              Alcotest.failf "%s: negative worker sample" r.Profile.pr_label)
         r.Profile.pr_workers)
    p.Profile.p_regions;
  if p.Profile.p_rounds = [] then Alcotest.fail "no speculation rounds";
  if p.Profile.p_committed + p.Profile.p_live <= 0 then
    Alcotest.fail "no destinations accounted by the rounds";
  Alcotest.(check (float 1e-9)) "amdahl at jobs=1" 1.0
    (Profile.amdahl_speedup p ~jobs:1);
  let s4 = Profile.amdahl_speedup p ~jobs:4 in
  if s4 < 1.0 || s4 > 4.0 then
    Alcotest.failf "amdahl at jobs=4 = %g out of [1, 4]" s4;
  (match p.Profile.p_alloc with
   | [] -> Alcotest.fail "empty alloc tree"
   | roots -> List.iter check_node roots);
  if String.length (Profile.alloc_flamegraph p) = 0 then
    Alcotest.fail "empty flamegraph";
  if String.length (Profile.timeline p) = 0 then Alcotest.fail "empty timeline"

(* {1 Chunk-claim conservation}

   The chunk total of a labelled region is ceil(n / chunk) no matter
   how many participants claimed them — including the jobs=1 inline
   path, which must report the same total so profile rows are
   comparable across job counts. *)

let test_chunk_conservation () =
  let n = 37 and chunk = 4 in
  let expected = (n + chunk - 1) / chunk in
  List.iter
    (fun jobs ->
       with_profiling @@ fun () ->
       let hits = Array.make n 0 in
       Pool.run_with ~jobs ~chunk ~label:"test.chunks" ~n
         ~init:(fun () -> ())
         (fun () i -> hits.(i) <- hits.(i) + 1);
       Array.iteri
         (fun i c ->
            if c <> 1 then Alcotest.failf "task %d ran %d times" i c)
         hits;
       let p = Profile.report () in
       match
         List.find_opt
           (fun (r : Profile.pool_region) ->
              r.Profile.pr_label = "test.chunks")
           p.Profile.p_regions
       with
       | None -> Alcotest.failf "jobs=%d: region not recorded" jobs
       | Some r ->
         Alcotest.(check int)
           (Printf.sprintf "jobs=%d: tasks" jobs)
           n r.Profile.pr_tasks;
         let total =
           Array.fold_left
             (fun a (w : Profile.worker_sample) -> a + w.Profile.ws_chunks)
             0 r.Profile.pr_workers
         in
         Alcotest.(check int)
           (Printf.sprintf "jobs=%d: chunk total" jobs)
           expected total)
    [ 1; 2; 4 ]

(* {1 Alloc attribution of nested spans} *)

(* Minor-heap churn with an exact floor: every [ref] is 2 words and
   [quick_stat.minor_words] is precise at any instant (computed from
   the young pointer), unlike the major-words counter, which is only
   flushed at GC slice boundaries and would make small major
   allocations invisible to a tight scope. *)
let churn k =
  for _ = 1 to k do
    ignore (Sys.opaque_identity (ref 0.0))
  done

let test_alloc_attribution () =
  with_profiling @@ fun () ->
  Span.with_ "outer" (fun () ->
      churn 10_000;
      Span.with_ "inner" (fun () -> churn 100_000));
  let p = Profile.report () in
  let outer =
    match
      List.find_opt
        (fun (x : Profile.alloc_node) -> x.Profile.an_name = "outer")
        p.Profile.p_alloc
    with
    | Some x -> x
    | None -> Alcotest.fail "outer phase missing"
  in
  let inner =
    match
      List.find_opt
        (fun (x : Profile.alloc_node) -> x.Profile.an_name = "inner")
        outer.Profile.an_children
    with
    | Some x -> x
    | None -> Alcotest.fail "inner not nested under outer"
  in
  let words (x : Profile.alloc_node) =
    x.Profile.an_minor_words +. x.Profile.an_major_words
  in
  let self (x : Profile.alloc_node) =
    x.Profile.an_self_minor_words +. x.Profile.an_self_major_words
  in
  Alcotest.(check int) "outer calls" 1 outer.Profile.an_calls;
  Alcotest.(check int) "inner calls" 1 inner.Profile.an_calls;
  if words inner < 150_000.0 then
    Alcotest.failf "inner words %g: 100k refs not attributed" (words inner);
  if words outer < words inner +. 15_000.0 then
    Alcotest.failf "outer inclusive %g misses inner %g + own churn"
      (words outer) (words inner);
  if self outer >= words outer then
    Alcotest.failf "outer self %g not below inclusive %g" (self outer)
      (words outer);
  if self outer < 15_000.0 then
    Alcotest.failf "outer self %g misses its own 10k-ref churn" (self outer)

(* {1 Disabled profiler accumulates nothing} *)

let test_disabled_empty () =
  Profile.disable ();
  Profile.reset ();
  Span.reset ();
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Span.reset ())
    (fun () ->
       Span.with_ "outer" (fun () ->
           ignore (Sys.opaque_identity (Array.make 1_000 0.0)));
       Pool.run ~jobs:2 ~label:"test.off" ~n:8 (fun _ -> ()));
  let p = Profile.report () in
  Alcotest.(check int) "no regions" 0 (List.length p.Profile.p_regions);
  Alcotest.(check int) "no rounds" 0 (List.length p.Profile.p_rounds);
  Alcotest.(check int) "no alloc nodes" 0 (List.length p.Profile.p_alloc);
  Alcotest.(check (float 0.0)) "no busy seconds" 0.0
    p.Profile.p_parallel_busy_seconds;
  Alcotest.(check (float 0.0)) "serial fraction pins to 1" 1.0
    p.Profile.p_serial_fraction

let suite =
  [ ( "profile",
      [ Alcotest.test_case "profiled tables equal recorded digests" `Quick
          test_profiling_transparent;
        Alcotest.test_case "report arithmetic in range" `Quick
          test_report_sanity;
        Alcotest.test_case "chunk totals invariant across jobs" `Quick
          test_chunk_conservation;
        Alcotest.test_case "nested span alloc attribution" `Quick
          test_alloc_attribution;
        Alcotest.test_case "disabled profiler stays empty" `Quick
          test_disabled_empty ] ) ]
