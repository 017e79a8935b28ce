(* The benchmark's workloads and the inputs generated for them.

   Every workload routes with Nue and sends 2 KiB messages (the paper's
   size). The fabric side of each workload is fixed: it derives from
   [fabric_seed] as [Experiment.build] does (random topology from the
   seed, link failures from seed + 1, and Nue's partition and
   destination-order seed), plus the destination sample from seed + 3.
   The run's [--seed s] drives the traffic, from stream [s + 2]. The
   fabric stays fixed because its variation swamps the bounds: across
   seeds 1-10 a new random fabric moved the maximum forwarding index by
   70% (quartile distance over median) and a new destination sample
   moved the fat-tree's route time by 18%. The library only ever sees
   the generated inputs. *)

module Experiment = Nue_pipeline.Experiment
module Network = Nue_netgraph.Network
module Prng = Nue_structures.Prng
module Traffic = Nue_sim.Traffic

type t = {
  name : string;
  topology : Experiment.topology;
  faults : Experiment.faults;
  vcs : int;
  dest_sample : int option;  (* [None]: every terminal is a destination *)
  traffic : Traffic.spec;
  traffic_rounds : int;  (* [traffic] generated this many times, in turn *)
  injection_rate : float;
  simulate : bool;
      (* whether every rep simulates; route workloads simulate their
         traffic only in the traced run, to price the simulator's
         per-cycle cost on a large idle fabric *)
}

let message_bytes = 2048
let fabric_seed = 1

let torus ~dims ~terminals =
  Experiment.Torus3d { dims; terminals; redundancy = 1 }

(* Why each workload exists is recorded in README.md. [~tiny] swaps in
   miniature fabrics of the same shapes for the smoke test under
   [dune runtest]. *)
let all ~tiny =
  let pick full small = if tiny then small else full in
  let torus6 = torus ~dims:(pick (6, 6, 6) (3, 3, 2)) ~terminals:(pick 2 1) in
  [ { name = "fattree-route";
      topology =
        Experiment.Kary_ntree { k = pick 24 4; n = 3; terminals = 1 };
      faults = Experiment.No_faults;
      vcs = 4;
      dest_sample = Some (pick 128 8);
      traffic = Traffic.Random_permutation;
      traffic_rounds = 1;
      injection_rate = 1.0;
      simulate = false };
    { name = "random-k1-route";
      topology =
        Experiment.Random
          { switches = pick 125 16; links = pick 1000 40;
            terminals = pick 8 2 };
      faults = Experiment.Link_failures 0.05;
      vcs = 1;
      dest_sample = None;
      traffic = Traffic.Random_permutation;
      traffic_rounds = 1;
      injection_rate = 1.0;
      simulate = false };
    { name = "torus-uniform-sim";
      topology = torus6;
      faults = Experiment.No_faults;
      vcs = 4;
      dest_sample = None;
      (* Uniform random destinations as permutations: every terminal
         sends and receives the same number of messages. Independent
         uniform draws leave some receivers with twice the mean, and
         that tail moved the simulated cycles by 30% across seeds. *)
      traffic = Traffic.Random_permutation;
      traffic_rounds = pick 8 2;
      injection_rate = 1.0;
      simulate = true };
    { name = "torus-incast-sim";
      topology = torus6;
      faults = Experiment.No_faults;
      vcs = 4;
      dest_sample = None;
      traffic =
        Traffic.Incast { victims = pick 4 2; messages_per_source = 1 };
      traffic_rounds = 1;
      injection_rate = 0.25;
      simulate = true } ]

let names = List.map (fun w -> w.name) (all ~tiny:false)

let find name = List.find_opt (fun w -> w.name = name) (all ~tiny:false)

(* {1 Generated inputs} *)

type inputs = {
  built : Experiment.built;
  dests : int array;  (* routed destinations, ascending *)
  traffic : Traffic.message list;  (* only to routed destinations *)
}

let build (w : t) =
  Experiment.build
    (Experiment.setup ~faults:w.faults ~seed:fabric_seed w.topology)

let destinations (w : t) (built : Experiment.built) =
  let terms = Network.terminals built.Experiment.net in
  match w.dest_sample with
  | Some k when k < Array.length terms ->
    let a = Array.copy terms in
    Prng.shuffle (Prng.create (fabric_seed + 3)) a;
    let s = Array.sub a 0 k in
    Array.sort compare s;
    s
  | _ -> terms

let traffic (w : t) ~seed (built : Experiment.built) =
  let prng = Prng.create (seed + 2) in
  List.concat
    (List.init w.traffic_rounds (fun _ ->
         Traffic.generate prng w.traffic built.Experiment.net ~message_bytes))

(* Messages whose destination the table does not route are dropped
   here, before the simulator sees them (only sampled workloads have
   any). *)
let routed_only (built : Experiment.built) dests msgs =
  if Array.length dests = Network.num_terminals built.Experiment.net then msgs
  else begin
    let routed = Array.make (Network.num_nodes built.Experiment.net) false in
    Array.iter (fun d -> routed.(d) <- true) dests;
    List.filter (fun (m : Traffic.message) -> routed.(m.Traffic.dst)) msgs
  end

let setup (w : t) ~seed =
  let built = build w in
  let dests = destinations w built in
  { built; dests; traffic = routed_only built dests (traffic w ~seed built) }

let spec (w : t) inputs = Experiment.spec ~vcs:w.vcs ~dests:inputs.dests inputs.built

let sim_config (w : t) =
  { Nue_sim.Sim.default_config with Nue_sim.Sim.injection_rate = w.injection_rate }
