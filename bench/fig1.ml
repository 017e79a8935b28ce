(* FIG1A / FIG1B: all-to-all throughput and required VCs on a 4x4x3
   torus with one failed switch (paper Fig. 1).

   Setup: 4x4x3 3D torus, 4 terminals per switch, one faulty switch (47
   switches, 188 terminals), 4-VC budget, QDR InfiniBand. The harness
   prints, per routing: applicability, the VCs the routing consumes, the
   greedy layering requirement (what Fig. 1b plots), the edge forwarding
   index bottleneck, the analytic saturation throughput and — unless
   [--no-sim] — the flit-level simulated all-to-all throughput. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Tm = Nue_metrics.Throughput_model
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic

let run ~full ~sim () =
  Common.section "FIG1A/FIG1B: 4x4x3 torus, 1 faulty switch, 4-VC budget";
  let terminals_per_switch = if full then 4 else 2 in
  let message_bytes = if full then 2048 else 1024 in
  (* One shared builder with the CLI: same topology construction, same
     fault-injection semantics (Experiment, satellite of ISSUE 2). *)
  let built =
    Common.Experiment.build
      (Common.Experiment.setup
         ~faults:(Common.Experiment.Kill_switches [ 5 ])
         (Common.Experiment.Torus3d
            { dims = (4, 4, 3); terminals = terminals_per_switch;
              redundancy = 1 }))
  in
  let torus = Option.get built.Common.Experiment.torus in
  let remap = built.Common.Experiment.remap in
  let net = built.Common.Experiment.net in
  Common.describe net;
  if not full then
    print_endline
      "(reduced scale: 2 terminals/switch, 1 KiB messages; --full uses the\n\
      \ paper's 4 terminals/switch and 2 KiB)\n";
  let labels =
    [ "updown"; "lash"; "dfsssp"; "torus2qos" ] @ Common.nue_labels 4
  in
  let traffic = Traffic.all_to_all_shift net ~message_bytes in
  Common.print_header
    [ (11, "routing"); (12, "applicable"); (9, "VCs used");
      (10, "gamma_max"); (12, "model GB/s"); (10, "sim GB/s") ];
  let attempts =
    List.map
      (fun label ->
         let a = Common.run_routing ~torus ~remap ~max_vls:4 label net in
         (match a.Common.table with
          | Error e ->
            Printf.printf "%s%s(%s)\n%!"
              (Common.cell 11 label)
              (Common.cell 12 "no")
              (Common.error_string e)
          | Ok table ->
            let vls = Verify.vls_used table in
            let model = Tm.all_to_all table in
            let sim_gbs =
              if sim then begin
                let out = Sim.run table ~traffic in
                if out.Sim.deadlock then "DEADLOCK"
                else Common.fmt_f2 out.Sim.aggregate_gbs
              end
              else "-"
            in
            Printf.printf "%s%s%s%s%s%s\n%!"
              (Common.cell 11 label)
              (Common.cell 12 "yes")
              (Common.cell 9 (string_of_int vls))
              (Common.cell 10 (Common.fmt_f1 model.Tm.gamma_max))
              (Common.cell 12 (Common.fmt_f2 model.Tm.aggregate_gbs))
              (Common.cell 10 sim_gbs));
         (label, a.Common.table))
      labels
  in
  print_newline ();
  (* Fig. 1b: the VC requirement of each routing's own deadlock-removal
     mechanism, independent of the 4-VC budget. LASH and DFSSSP assign
     their layers uncapped and only then compare the count with the
     budget, so FIG1A's attempts already carry it. *)
  Printf.printf "FIG1B - required VCs for deadlock-freedom:\n";
  let print_required name vcs =
    Printf.printf "  %-10s %d  (%s)\n" name vcs
      (if vcs > 4 then "exceeds the 4-VC limit -> inapplicable"
       else "within the 4-VC limit")
  in
  let required name =
    match List.assoc name attempts with
    | Ok t -> print_required name t.Table.num_vls
    | Error (Common.Engine_error.Vc_budget_exceeded { needed; _ }) ->
      print_required name needed
    | Error _ -> Printf.printf "  %-10s FAIL\n" name
  in
  Printf.printf "  updown     1\n";
  required "lash";
  required "dfsssp";
  (match List.assoc "torus2qos" attempts with
   | Ok t -> Printf.printf "  torus2qos  %d\n" (Verify.vls_used t)
   | Error _ -> Printf.printf "  torus2qos  FAIL\n");
  Printf.printf "  nue=k      k (by construction, any k >= 1)\n\n";
  print_endline
    "Fig. 1 shape to reproduce: Torus-2QoS and Nue(k<=4) stay applicable\n\
     within the 4-VC budget and lead the throughput column; Up*/Down* and\n\
     LASH trail; DFSSSP's requirement exceeds 4 VCs, so it is inapplicable."
