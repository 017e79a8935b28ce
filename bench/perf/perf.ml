(* perf: the route -> verify -> simulate benchmark (see README.md).

   perf.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
     runs one workload in this process and prints its result as the
     last line of standard output (one JSON object).
   perf.exe [--seed S] [--seconds N] [--trace 0|1]
     runs every workload, each in its own child process, one after
     another, and prints a summary.
   perf.exe --calibrate N [--seed S] [--workload W]
     runs each workload in N child processes, with seeds S .. S+N-1,
     and prints per metric the median, quartiles and relative spreads.
   perf.exe --tiny [--benchmark FILE]
     the smoke test: miniature fabrics, checked against BENCHMARK.json.

   Exit codes: 0 when the runs completed (operation failures are
   counted in the result, not fatal), 2 on a harness error. *)

module Json = Nue_pipeline.Json

let default_seconds = 15.0

exception Harness_error of string

let harness_error fmt = Printf.ksprintf (fun m -> raise (Harness_error m)) fmt

let find_workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
    harness_error "unknown workload %S (expected one of: %s)" name
      (String.concat ", " Workload.names)

(* One workload in this process. Returns the result and, for a traced
   run, the outcome of the span-file check. *)
let run_here (w : Workload.t) ~seed ~seconds ~trace ~trace_file =
  Printf.printf "== %s (seed %d, %s)\n%!" w.Workload.name seed
    (if trace then "traced" else "end to end");
  if trace then Traced.run w ~seed ~seconds ~trace_file
  else (E2e.run w ~seed ~seconds, Ok 0)

let child_main ~name ~seed ~seconds ~trace ~trace_file =
  let w = find_workload name in
  let trace_file =
    if not trace then None
    else Some (Option.value trace_file ~default:("perf-trace-" ^ name ^ ".json"))
  in
  let report, check = run_here w ~seed ~seconds ~trace ~trace_file in
  (match (trace, check) with
   | true, Ok n ->
     Printf.printf "  span file %s: %d spans, well-formed\n"
       (Option.get trace_file) n
   | _, Error m -> harness_error "span file check failed: %s" m
   | false, Ok _ -> ());
  print_endline (Report.to_line report)

(* Re-run this executable on one workload; echo its output and parse
   its last line. *)
let spawn ~name ~seed ~seconds ~trace =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace";
      (if trace then "1" else "0") ]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line
     done
   with End_of_file -> ());
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
      try Report.of_line !last
      with Json.Parse_error m -> harness_error "%s: unreadable result (%s)" name m)
  | _ -> harness_error "%s: child process failed" name

let summary results =
  print_endline "\n== summary";
  List.iter
    (fun (name, (r : Report.t)) ->
       Printf.printf "%s  failed %d/%d\n" name r.Report.failed r.Report.attempted;
       List.iter
         (fun (m : Report.metric) ->
            Printf.printf "  %-28s %14.6g %s\n" m.Report.name m.Report.value
              m.Report.unit_)
         r.Report.metrics)
    results

let calibrate ~names ~n ~seed ~seconds ~trace =
  let results =
    List.map
      (fun name ->
         (name, List.init n (fun i -> spawn ~name ~seed:(seed + i) ~seconds ~trace)))
      names
  in
  print_endline "\n== calibration";
  Printf.printf "%-18s %-28s %3s %14s %14s %14s %8s %8s\n" "workload" "metric" "n"
    "median" "q1" "q3" "iqr/med" "rng/med";
  List.iter
    (fun (name, reports) ->
       let failed = List.fold_left (fun acc r -> acc + r.Report.failed) 0 reports in
       let attempted = List.fold_left (fun acc r -> acc + r.Report.attempted) 0 reports in
       List.iter
         (fun (m : Report.metric) ->
            let values =
              List.filter_map
                (fun r ->
                   List.find_opt (fun x -> x.Report.name = m.Report.name)
                     r.Report.metrics
                   |> Option.map (fun x -> x.Report.value))
                reports
            in
            let med = Stats.median values in
            let q1, q3 = Stats.quartiles values in
            let lo = List.fold_left Float.min Float.infinity values in
            let hi = List.fold_left Float.max Float.neg_infinity values in
            Printf.printf "%-18s %-28s %3d %14.6g %14.6g %14.6g %8.4f %8.4f\n" name
              m.Report.name (List.length values) med q1 q3 ((q3 -. q1) /. med)
              ((hi -. lo) /. med))
         (List.hd reports).Report.metrics;
       Printf.printf "%-18s failed %d/%d\n" name failed attempted)
    results

(* {1 The smoke test} *)

let tiny ~benchmark =
  let spec =
    try Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all)
    with Sys_error m | Json.Parse_error m -> harness_error "%s: %s" benchmark m
  in
  let entries key =
    match Json.member key spec with
    | Some (Json.List l) -> l
    | _ -> harness_error "%s: no %s list" benchmark key
  in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
  let metric_specs key = List.map (fun o -> (str "name" o, str "unit" o)) (entries key) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let declared = List.map (str "name") (entries "workloads") in
  if declared <> Workload.names then
    problem "BENCHMARK.json workloads [%s] differ from the harness's [%s]"
      (String.concat ", " declared) (String.concat ", " Workload.names);
  let expect ~what (w : Workload.t) specs (r : Report.t) =
    let got = List.map (fun m -> m.Report.name) r.Report.metrics in
    if List.sort compare got <> List.sort compare (List.map fst specs) then
      problem "%s %s: emitted metrics [%s] differ from BENCHMARK.json's" w.Workload.name
        what (String.concat ", " got);
    List.iter
      (fun (name, unit_) ->
         match List.find_opt (fun m -> m.Report.name = name) r.Report.metrics with
         | None -> ()
         | Some m ->
           if m.Report.unit_ <> unit_ then
             problem "%s %s: %s has unit %S, BENCHMARK.json says %S"
               w.Workload.name what name m.Report.unit_ unit_;
           if not (Float.is_finite m.Report.value) then
             problem "%s %s: %s is not finite" w.Workload.name what name)
      specs;
    if r.Report.failed <> 0 then
      problem "%s %s: %d of %d operations failed" w.Workload.name what
        r.Report.failed r.Report.attempted
  in
  List.iter
    (fun w ->
       let e2e, _ = run_here w ~seed:1 ~seconds:0.0 ~trace:false ~trace_file:None in
       expect ~what:"end to end" w (metric_specs "end_to_end") e2e;
       let traced, check = run_here w ~seed:1 ~seconds:0.0 ~trace:true ~trace_file:None in
       expect ~what:"traced" w (metric_specs "per_layer") traced;
       match check with
       | Ok _ -> ()
       | Error m -> problem "%s: span file: %s" w.Workload.name m)
    (Workload.all ~tiny:true);
  match List.rev !problems with
  | [] -> ()
  | ps ->
    List.iter (fun p -> prerr_endline ("perf --tiny: " ^ p)) ps;
    exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref 0 and trace_file = ref None and calibrate_n = ref 0 in
  let tiny_mode = ref false and benchmark = ref "BENCHMARK.json" in
  let usage = "perf.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
               [--trace-file F] [--calibrate N] [--tiny [--benchmark FILE]]" in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "W  run only this workload (in this process unless --calibrate)");
      ("--seed", Arg.Set_int seed, "S  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds,
       Printf.sprintf "N  measure for N seconds per workload (default %g)"
         default_seconds);
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
       "  1: the traced run (per-layer metrics and a span file)");
      ("--trace-file", Arg.String (fun s -> trace_file := Some s),
       "F  span file of a traced run (default perf-trace-W.json)");
      ("--calibrate", Arg.Set_int calibrate_n,
       "N  run each workload in N processes (seeds S..S+N-1), print spreads");
      ("--tiny", Arg.Set tiny_mode, "  smoke test on miniature fabrics");
      ("--benchmark", Arg.String (fun s -> benchmark := s),
       "FILE  BENCHMARK.json to check --tiny against") ]
  in
  try
    Arg.parse specs (fun a -> harness_error "unexpected argument %S" a) usage;
    let trace = !trace = 1 in
    let names = match !workload with Some n -> [ n ] | None -> Workload.names in
    List.iter (fun n -> ignore (find_workload n)) names;
    if !tiny_mode then tiny ~benchmark:!benchmark
    else if !calibrate_n > 0 then
      calibrate ~names ~n:!calibrate_n ~seed:!seed ~seconds:!seconds ~trace
    else
      match !workload with
      | Some name ->
        child_main ~name ~seed:!seed ~seconds:!seconds ~trace ~trace_file:!trace_file
      | None ->
        summary
          (List.map
             (fun name -> (name, spawn ~name ~seed:!seed ~seconds:!seconds ~trace))
             names)
  with Harness_error m ->
    prerr_endline ("perf: " ^ m);
    exit 2
