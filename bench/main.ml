(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                  # all experiments, reduced scale
     dune exec bench/main.exe -- fig1a fig11   # a subset
     dune exec bench/main.exe -- --full fig9   # paper-scale parameters
     dune exec bench/main.exe -- --topos 50 fig9
     dune exec bench/main.exe -- --sim fig10   # add flit-level simulation *)

let experiments =
  [ "tab1"; "topo-stats"; "telemetry"; "workloads"; "fig1"; "fig1a"; "fig1b";
    "fig9"; "sec51"; "fig10"; "fig11"; "churn"; "scale"; "abl-partition";
    "abl-root"; "abl-opt"; "abl-weights"; "abl-impasse" ]

let usage oc =
  output_string oc
    "experiments: tab1 topo-stats telemetry workloads fig1a fig1b fig9\n\
    \             sec51 fig10 fig11 churn scale abl-partition abl-root\n\
    \             abl-opt abl-weights abl-impasse\n\
    \             (scale routes 3k-10k-switch topologies — minutes of CPU —\n\
    \              and is not part of the no-argument default set)\n\
     flags: --full (paper-scale), --sim (flit-level simulation),\n\
    \        --no-sim, --topos N (fig9 topology count)\n\
     every run writes machine-readable results to BENCH_nue.json\n"

let () =
  let full = ref false and sim_flag = ref false and no_sim = ref false in
  let topos = ref None and help = ref false in
  let wanted = ref [] and unknown = ref [] in
  let rec scan = function
    | [] -> ()
    | "--" :: rest -> scan rest
    | "--full" :: rest -> full := true; scan rest
    | "--sim" :: rest -> sim_flag := true; scan rest
    | "--no-sim" :: rest -> no_sim := true; scan rest
    | ("--help" | "-h") :: rest -> help := true; scan rest
    | "--topos" :: n :: rest when int_of_string_opt n <> None ->
      topos := int_of_string_opt n;
      scan rest
    | a :: rest ->
      if List.mem a experiments then wanted := a :: !wanted
      else unknown := a :: !unknown;
      scan rest
  in
  scan (List.tl (Array.to_list Sys.argv));
  (* Reject what is not understood before anything runs, so a typo
     cannot overwrite BENCH_nue.json with an empty report. *)
  if !unknown <> [] then begin
    Printf.eprintf "bench: unknown argument(s): %s\n"
      (String.concat " " (List.rev !unknown));
    usage stderr;
    exit 2
  end;
  let wanted = if !wanted = [] then
      [ "tab1"; "telemetry"; "workloads"; "fig1a"; "fig9"; "fig10";
        "fig11"; "churn"; "abl-partition"; "abl-root"; "abl-opt";
        "abl-weights"; "abl-impasse" ]
    else !wanted
  in
  let has x = List.mem x wanted in
  let full = !full in
  if !help then usage stdout
  else begin
    Printf.printf "Nue reproduction harness (%s scale)\n"
      (if full then "paper" else "reduced");
    if has "tab1" then Tab1.run ();
    if has "telemetry" then Telemetry_bench.run ~full ();
    if has "workloads" then Workloads_bench.run ~full ();
    if has "topo-stats" then Topostats.run ();
    if has "fig1a" || has "fig1b" || has "fig1" then
      (* fig1a and fig1b come from the same runs. *)
      Fig1.run ~full ~sim:(not !no_sim) ();
    if has "fig9" || has "sec51" then Fig9.run ~full ~topos:!topos ();
    if has "fig10" then Fig10.run ~full ~sim:!sim_flag ();
    if has "fig11" then Fig11.run ~full ();
    if has "churn" then Churn_bench.run ~full ();
    if has "scale" then Scale_bench.run ~full ();
    if has "abl-partition" then Ablations.partitioning ~full ();
    if has "abl-root" then Ablations.root_selection ~full ();
    if has "abl-opt" then Ablations.optimizations ~full ();
    if has "abl-weights" then Ablations.weights ~full ();
    if has "abl-impasse" then Ablations.impasse ~full ();
    (* Always emit the machine-readable report, even for a subset run:
       the CI check and artifact steps read this file. *)
    Report.write ()
  end
