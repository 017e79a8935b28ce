(* Tests for the span tracer (Nue_obs.Span): Chrome trace-event JSON
   well-formedness (checked with a real parser), strict begin/end
   nesting, byte-identical traces across two identical seeded runs,
   the disabled path's zero-allocation guarantee, exit-guard semantics
   (raise in debug, saturate in release), the external-clock
   monotonicity contract, buffer capacity accounting, and flamegraph
   rendering. *)

module Span = Nue_obs.Span
module Obs = Nue_obs.Obs
module Experiment = Nue_pipeline.Experiment

let test_case = Alcotest.test_case

(* Every test leaves the tracer disabled, empty and in release mode so
   instrumented production code never bleeds events between tests. *)
let scrub () =
  Span.disable ();
  Span.reset ();
  Obs.set_debug false

(* {1 A minimal JSON parser}

   Just enough of RFC 8259 to prove the exported trace is well-formed
   without depending on a JSON package: objects, arrays, strings with
   escapes, numbers, true/false/null. Raises [Failure] on any
   malformed input. *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           for _ = 1 to 4 do
             (match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
              | _ -> fail "bad \\u escape")
           done;
           Buffer.add_char b '?' (* decoded value irrelevant to the tests *)
         | _ -> fail "bad escape");
        go ()
      | '\255' -> fail "unterminated string"
      | c when Char.code c < 0x20 -> fail "raw control char in string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while (match peek () with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if peek () = '.' then begin
      advance ();
      while (match peek () with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    end;
    (match peek () with
     | 'e' | 'E' ->
       advance ();
       (match peek () with '+' | '-' -> advance () | _ -> ());
       while (match peek () with '0' .. '9' -> true | _ -> false) do
         advance ()
       done
     | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); JObj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); JObj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); JList [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); JList (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | '"' -> JStr (parse_string ())
    | 't' -> literal "true" (JBool true)
    | 'f' -> literal "false" (JBool false)
    | 'n' -> literal "null" JNull
    | '-' | '0' .. '9' -> JNum (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* {1 Fixtures} *)

(* One routed-and-simulated run with the tracer on: routing spans are
   tick-stamped, the sim span is cycle-stamped. The buffer is left
   intact for the caller to inspect. *)
let traced_run ?(seed = 21) () =
  let built = Helpers.random_built ~seed () in
  Helpers.spanned (fun () ->
      match (Experiment.run ~vcs:4 ~engine:"nue" built).Experiment.table with
      | Ok table ->
        ignore (Experiment.simulate_with_telemetry ~message_bytes:128 table)
      | Error _ -> Alcotest.fail "nue failed")

(* {1 Tests} *)

let chrome_json_well_formed () =
  scrub ();
  traced_run ();
  Alcotest.(check bool) "events recorded" true (Span.num_events () > 0);
  (match parse_json (Span.to_chrome_string ()) with
   | JObj fields ->
     (match List.assoc_opt "traceEvents" fields with
      | Some (JList evs) ->
        Alcotest.(check bool) "nonempty traceEvents" true (evs <> []);
        List.iter
          (fun ev ->
             match ev with
             | JObj f ->
               let str k =
                 match List.assoc_opt k f with
                 | Some (JStr s) -> s
                 | _ -> Alcotest.fail (k ^ " missing or not a string")
               in
               let num k =
                 match List.assoc_opt k f with
                 | Some (JNum x) -> x
                 | _ -> Alcotest.fail (k ^ " missing or not a number")
               in
               Alcotest.(check bool) "name nonempty" true (str "name" <> "");
               Alcotest.(check bool) "known phase" true
                 (List.mem (str "ph") [ "B"; "E"; "i"; "C" ]);
               Alcotest.(check bool) "ts non-negative" true (num "ts" >= 0.0);
               ignore (num "pid");
               ignore (num "tid")
             | _ -> Alcotest.fail "trace event not an object")
          evs
      | _ -> Alcotest.fail "no traceEvents array")
   | _ -> Alcotest.fail "trace not an object");
  scrub ()

let spans_nest_strictly () =
  scrub ();
  traced_run ();
  (* Walk the buffer with a stack: every End must match the innermost
     open Begin, and everything must be closed at the end. *)
  let stack = ref [] in
  List.iter
    (fun (e : Span.event) ->
       match e.Span.phase with
       | Span.Begin -> stack := e.Span.name :: !stack
       | Span.End ->
         (match !stack with
          | top :: rest ->
            Alcotest.(check string) "end matches innermost begin" top
              e.Span.name;
            stack := rest
          | [] -> Alcotest.fail "end without begin")
       | Span.Instant | Span.Counter -> ())
    (Span.events ());
  Alcotest.(check (list string)) "all spans closed" [] !stack;
  Alcotest.(check int) "depth zero" 0 (Span.current_depth ());
  (* Timestamps never go backwards, across the tick->cycle->tick clock
     switches of the sim run. *)
  let rec monotone last = function
    | [] -> ()
    | (e : Span.event) :: rest ->
      Alcotest.(check bool) "monotone ts" true (e.Span.ts >= last);
      monotone e.Span.ts rest
  in
  monotone 0 (Span.events ());
  scrub ()

let identical_runs_trace_identically () =
  scrub ();
  traced_run ~seed:33 ();
  let first = Span.to_chrome_string () in
  let first_flame = Span.flamegraph () in
  traced_run ~seed:33 ();
  Alcotest.(check string) "byte-identical trace" first
    (Span.to_chrome_string ());
  Alcotest.(check string) "byte-identical flamegraph" first_flame
    (Span.flamegraph ());
  scrub ()

let disabled_path_does_not_allocate () =
  scrub ();
  let thunk () = 0 in
  (* Warm up. *)
  ignore (Span.enter "test.span.warm");
  Span.exit Span.null_handle;
  Span.instant "test.span.warm";
  ignore (Span.with_ "test.span.warm" thunk);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let h = Span.enter "test.span.alloc" in
    Span.exit h;
    Span.instant "test.span.alloc";
    ignore (Span.with_ "test.span.alloc" thunk)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "disabled span ops allocation-free" true
    (w1 -. w0 < 256.0);
  Alcotest.(check int) "nothing recorded" 0 (Span.num_events ());
  scrub ()

let exit_guard_raises_in_debug () =
  scrub ();
  Span.enable ();
  Obs.set_debug true;
  let h = Span.enter "test.span.outer" in
  Span.exit h;
  Alcotest.(check bool) "double exit raises" true
    (match Span.exit h with
     | exception Invalid_argument _ -> true
     | () -> false);
  let outer = Span.enter "test.span.outer" in
  let _inner = Span.enter "test.span.inner" in
  Alcotest.(check bool) "exiting over open children raises" true
    (match Span.exit outer with
     | exception Invalid_argument _ -> true
     | () -> false);
  scrub ()

let exit_guard_saturates_in_release () =
  scrub ();
  Span.enable ();
  (* debug off: double exits drop, open children are closed first. *)
  let h = Span.enter "test.span.outer" in
  Span.exit h;
  Span.exit h;
  Span.exit h;
  Alcotest.(check int) "depth still zero" 0 (Span.current_depth ());
  let outer = Span.enter "test.span.outer" in
  let _i1 = Span.enter "test.span.i1" in
  let _i2 = Span.enter "test.span.i2" in
  Span.exit outer;
  Alcotest.(check int) "children auto-closed" 0 (Span.current_depth ());
  (* The buffer must still be perfectly nested. *)
  let stack = ref [] in
  List.iter
    (fun (e : Span.event) ->
       match e.Span.phase with
       | Span.Begin -> stack := e.Span.name :: !stack
       | Span.End ->
         (match !stack with
          | top :: rest ->
            Alcotest.(check string) "nested" top e.Span.name;
            stack := rest
          | [] -> Alcotest.fail "end without begin")
       | _ -> ())
    (Span.events ());
  Alcotest.(check (list string)) "balanced" [] !stack;
  scrub ()

let with_annotates_exceptions () =
  scrub ();
  Span.enable ();
  (match Span.with_ "test.span.exn" (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "depth restored" 0 (Span.current_depth ());
  (match List.rev (Span.events ()) with
   | (closing : Span.event) :: _ ->
     Alcotest.(check bool) "phase is End" true (closing.Span.phase = Span.End);
     Alcotest.(check bool) "exception annotated" true
       (List.exists
          (fun (k, v) ->
             k = "exception"
             && (match v with
                 | Span.Str s ->
                   (* the annotation carries the exception text *)
                   String.length s > 0
                 | _ -> false))
          closing.Span.args)
   | [] -> Alcotest.fail "no events");
  scrub ()

let external_clock_stays_monotonic () =
  scrub ();
  Span.enable ();
  let h = Span.enter "test.span.pre" in
  Span.exit h;
  (* An external clock far ahead of the tick counter, then back: the
     tick clock must jump past the larger stamps. *)
  let cycle = ref 1000 in
  Span.set_clock (fun () -> !cycle);
  Span.instant "test.span.cycle_a";
  cycle := 1010;
  Span.instant "test.span.cycle_b";
  Span.use_tick_clock ();
  Span.instant "test.span.post";
  let stamps =
    List.map (fun (e : Span.event) -> e.Span.ts) (Span.events ())
  in
  let rec monotone last = function
    | [] -> ()
    | ts :: rest ->
      Alcotest.(check bool) "monotone after clock switch" true (ts >= last);
      monotone ts rest
  in
  monotone 0 stamps;
  (match List.rev stamps with
   | post :: _ ->
     Alcotest.(check bool) "tick jumped past external stamps" true (post > 1010)
   | [] -> Alcotest.fail "no events");
  scrub ()

let capacity_cap_counts_drops () =
  scrub ();
  Span.enable ();
  Span.set_capacity 8;
  for _ = 1 to 50 do
    Span.with_ "test.span.capped" (fun () -> ())
  done;
  Alcotest.(check int) "buffer capped" 8 (Span.num_events ());
  Alcotest.(check int) "drops counted" (2 * 50 - 8) (Span.dropped ());
  Alcotest.(check int) "nesting bookkeeping intact" 0 (Span.current_depth ());
  (* The capped buffer still exports valid JSON. *)
  (match parse_json (Span.to_chrome_string ()) with
   | JObj _ -> ()
   | _ -> Alcotest.fail "capped trace not an object");
  Span.set_capacity 262_144;
  scrub ()

let flamegraph_aggregates_by_path () =
  scrub ();
  Span.enable ();
  (* outer { inner; inner } ; inner — the top-level [inner] must not
     merge with the nested ones. *)
  Span.with_ "test.span.outer" (fun () ->
      Span.with_ "test.span.inner" (fun () -> ());
      Span.with_ "test.span.inner" (fun () -> ()));
  Span.with_ "test.span.inner" (fun () -> ());
  let fg = Span.flamegraph () in
  let count_sub needle =
    let nl = String.length needle and hl = String.length fg in
    let rec go i acc =
      if i + nl > hl then acc
      else if String.sub fg i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "outer once" 1 (count_sub "test.span.outer");
  Alcotest.(check int) "inner on two distinct paths" 2
    (count_sub "test.span.inner");
  Alcotest.(check bool) "nested call count shown" true (count_sub "2x" >= 1);
  scrub ();
  Alcotest.(check string) "empty flamegraph placeholder"
    "(no spans recorded)\n" (Span.flamegraph ())

(* The forward-discovery payload counts the channels the discovery
   expanded itself, so a trace does not depend on whether the counter
   view is on. *)
let trace_independent_of_counters () =
  scrub ();
  let built =
    Experiment.build
      (Experiment.setup
         (Experiment.Torus3d { dims = (3, 3, 3); terminals = 1; redundancy = 1 }))
  in
  let trace views =
    ignore
      (Experiment.observe views (fun () ->
           Experiment.run ~vcs:2 ~engine:"nue" built));
    Span.to_chrome_string ()
  in
  let counted = trace [ Experiment.Spans; Experiment.Counters ] in
  let plain = trace [ Experiment.Spans ] in
  Alcotest.(check string) "same trace with counters on and off" counted plain;
  Alcotest.(check bool) "discoveries report visited channels" true
    (List.exists
       (fun (e : Span.event) ->
          e.Span.name = "cdg.forward_discovery"
          && (match List.assoc_opt "visited" e.Span.args with
              | Some (Span.Int v) -> v > 0
              | _ -> false))
       (Span.events ()));
  scrub ()

let suite =
  [ ("span:export",
     [ test_case "chrome JSON well-formed" `Quick chrome_json_well_formed;
       test_case "strict nesting" `Quick spans_nest_strictly;
       test_case "deterministic across identical runs" `Quick
         identical_runs_trace_identically;
       test_case "flamegraph aggregates by path" `Quick
         flamegraph_aggregates_by_path;
       test_case "trace independent of the counter view" `Quick
         trace_independent_of_counters ]);
    ("span:guards",
     [ test_case "disabled path allocation-free" `Quick
         disabled_path_does_not_allocate;
       test_case "debug raises on unbalanced exit" `Quick
         exit_guard_raises_in_debug;
       test_case "release saturates on unbalanced exit" `Quick
         exit_guard_saturates_in_release;
       test_case "with_ annotates exceptions" `Quick with_annotates_exceptions;
       test_case "external clock stays monotonic" `Quick
         external_clock_stays_monotonic;
       test_case "capacity cap counts drops" `Quick capacity_cap_counts_drops ]) ]
