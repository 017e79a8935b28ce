(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                  # all experiments, reduced scale
     dune exec bench/main.exe -- fig1a fig11   # a subset
     dune exec bench/main.exe -- --full fig9   # paper-scale parameters
     dune exec bench/main.exe -- --topos 50 fig9
     dune exec bench/main.exe -- --sim fig10   # add flit-level simulation *)

let usage () =
  print_endline
    "experiments: tab1 topo-stats telemetry workloads fig1a fig1b fig9\n\
    \             sec51 fig10 fig11 churn scale abl-partition abl-root\n\
    \             abl-opt abl-weights abl-impasse\n\
    \             (scale routes 3k-10k-switch topologies — minutes of CPU —\n\
    \              and is not part of the no-argument default set)\n\
     flags: --full (paper-scale), --sim (flit-level simulation),\n\
    \        --no-sim, --topos N (fig9 topology count)\n\
     every run writes machine-readable results to BENCH_nue.json"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let sim_flag = List.mem "--sim" args in
  let no_sim = List.mem "--no-sim" args in
  let topos = ref None in
  let rec scan = function
    | "--topos" :: n :: rest ->
      topos := Some (int_of_string n);
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan args;
  let wanted =
    List.filter
      (fun a -> (not (String.length a >= 2 && String.sub a 0 2 = "--"))
                && (match int_of_string_opt a with Some _ -> false | None -> true))
      args
  in
  let wanted = if wanted = [] then
      [ "tab1"; "telemetry"; "workloads"; "fig1a"; "fig9"; "fig10";
        "fig11"; "churn"; "abl-partition"; "abl-root"; "abl-opt";
        "abl-weights"; "abl-impasse" ]
    else wanted
  in
  let has x = List.mem x wanted in
  if List.mem "--help" args || List.mem "-h" args then usage ()
  else begin
    Printf.printf "Nue reproduction harness (%s scale)\n"
      (if full then "paper" else "reduced");
    if has "tab1" then Tab1.run ();
    if has "telemetry" then Telemetry_bench.run ~full ();
    if has "workloads" then Workloads_bench.run ~full ();
    if has "topo-stats" then Topostats.run ();
    if has "fig1a" || has "fig1b" || has "fig1" then
      (* fig1a and fig1b come from the same runs. *)
      Fig1.run ~full ~sim:(not no_sim) ();
    if has "fig9" || has "sec51" then Fig9.run ~full ~topos:!topos ();
    if has "fig10" then Fig10.run ~full ~sim:sim_flag ();
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
