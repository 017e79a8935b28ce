(* Compact graph core: representation-equivalence suite and unit tests
   for the CSR adjacency pool.

   The equivalence suite pins an MD5 digest for every engine x seeded
   fixture, and a second one of the table's measured statistics
   ([Experiment.metrics_to_json]). The table digests were recorded with
   tools/fingerprint.exe when the hashtable-backed graph core was
   replaced by the int-indexed CSR/bitset representation; any future
   change to these tables is a routing-behavior change, not a refactor,
   and must re-record the digests deliberately (run the tool, explain
   the diff in the commit). The statistics digests come from the same
   tool, recorded when every statistic moved onto [Verify]'s one walk
   per destination tree; they move only with a table or with a
   deliberate change to what a statistic counts.

   Two engine families differ from the CSR recording, or did:

   - nue on torus333/torus443/random12/dense16/random20 was re-recorded
     when Nue's per-layer destination loop moved to speculative batched
     rounds over the domain pool (see DESIGN.md "Parallel execution
     model"): destinations of a round tie-break on the weights frozen
     at the round boundary (CDG admissions are replayed in order at
     commit, so deadlock-freedom is unaffected).

   - sssp/dfsssp are back at the CSR recording. For a while they
     computed destinations in freeze rounds of up to 8 against frozen
     weights, and equal-hop tie-breaking piled onto the same parallel
     paths: reduced FIG9's DFSSSP G_max rose from 786 to 1124, and
     DFSSSP fit the 4-VC budget of FIG1 that it exceeds. They now route
     one destination at a time on the live weights, as DFSSSP is
     published, and every sssp/dfsssp table digest equals the CSR
     recording again. The statistics digests of the 14 tables that
     moved back were re-recorded with them.

   The nue round schedule is a pure function of the seeded destination
   order — never of the job count — so these digests are stable for
   any --jobs value (test_parallel.ml proves it). minhop, updown,
   lash, static-cdg, torus2qos and fattree are byte-identical to the
   pre-batching recordings: their parallelization only shards pure
   per-destination computation, and sssp/dfsssp do not use the pool. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Adjacency = Nue_structures.Adjacency
module Prng = Nue_structures.Prng
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Experiment = Nue_pipeline.Experiment

(* {1 Representation equivalence} *)

(* Fixture builders mirror tools/fingerprint.ml (mostly via Helpers). *)
let fixtures =
  let prebuilt ?torus net () =
    Experiment.build (Experiment.setup (Experiment.prebuilt ?torus net))
  in
  [ ("ring5", fun () -> prebuilt (Helpers.ring5 ()) ());
    ("ring8", fun () -> prebuilt (Helpers.ring 8) ());
    ("line6", fun () -> prebuilt (Helpers.line 6) ());
    ("torus333",
     fun () ->
       let t = Helpers.small_torus () in
       prebuilt ~torus:t t.Topology.net ());
    ("torus443",
     fun () ->
       let t = Helpers.torus443 () in
       prebuilt ~torus:t t.Topology.net ());
    ("random12", fun () -> Helpers.random_built ());
    ("dense16", fun () -> Helpers.dense_random_built ());
    ("random20", fun () -> prebuilt (Helpers.random_net ()) ());
    ("tree442",
     fun () ->
       Experiment.build
         (Experiment.setup
            (Experiment.Kary_ntree { k = 4; n = 2; terminals = 2 }))) ]

let recorded =
  [ ("ring5",
     [ ("minhop", "b22e1c935b85cdbb095ff41bd309d4ba");
       ("sssp", "15afba6a671871d5f7733d317c65d260");
       ("updown", "58d765bb38055c8c7ad5636022419500");
       ("dfsssp", "31b9540256c40c7b99fb0cebdbb56d66");
       ("lash", "22f2ef3da0bc3705784f5a9abf8bb11d");
       ("static-cdg", "e070ad4f4f4bef62c93131ce4ceb0db6");
       ("nue", "5c5a353f0e441caff535ccb6800cccd7") ]);
    ("ring8",
     [ ("minhop", "2a529b838c93656370f62760f2521adf");
       ("sssp", "3e223a7bc65384e3dbbc856cfc8f4633");
       ("updown", "2e889d1203c08959931da1eab222812b");
       ("dfsssp", "7d6042ff0d388ca9ae33411e7aa8bd1f");
       ("lash", "6fc81a344e11c269e1169e0c45141860");
       ("static-cdg", "4f1d2440aa38870b59c03ca9144d48aa");
       ("nue", "42579f93e6655733163901fb5605f553") ]);
    ("line6",
     [ ("minhop", "45e56f5b940c13886b12368b54f97ad4");
       ("sssp", "1dbce151156930ffc849426e7a81da15");
       ("updown", "c0cf2bb470759824d09bc6370a2610b4");
       ("dfsssp", "8a6325bcbb29ac11976841ed96594c07");
       ("lash", "85ff6eafe99b4525ce3dc948b3685a74");
       ("static-cdg", "631b24c692b5e83a46229532b5b47d56");
       ("nue", "959a6fc4d765bd3795d8c71f6476ec00") ]);
    ("torus333",
     [ ("minhop", "00d7c30aaa5dbf87559d8cdf14e4852a");
       ("sssp", "7c3c15beb315ab680b21ef17fe5b000b");
       ("updown", "beb6212c4de4322fae7679bfcbc64cc1");
       ("dfsssp", "0be4d181f2553d338dc09ee9328b8e77");
       ("lash", "102a6997190d5c53e50e198e39c62991");
       ("static-cdg", "b756f309ed2247879994583a0c4d3c3a");
       ("nue", "6d984992f149f43eb98441caf7aa62e9");
       ("torus2qos", "f20d8dd5e1d7acaa87f27e03f3ffc803") ]);
    ("torus443",
     [ ("minhop", "352e4808fbda0eb64a6ba41b811db4b1");
       ("sssp", "06bb0d1a5b3ff2ee77df1a2919c3812f");
       ("updown", "8a31c12fd189c594f137f9592c5b76a5");
       ("dfsssp", "e0146722c21689b200c892ec84631056");
       ("lash", "a1bb9863e315e5f33241cd4dc26ea770");
       ("static-cdg", "c1f891e61a7deeef2f4e034cd65abbfd");
       ("nue", "7cf0df2e984b370dcd3fb6119a4e9069");
       ("torus2qos", "4c9281c2764a32e104d16bcbf287a4ba") ]);
    ("random12",
     [ ("minhop", "5d5aac3e1603c58a4d6e0c202bc010f6");
       ("sssp", "e64e5cff63ca50fbe5c87f2ad19948ec");
       ("updown", "1b76d53235b47cf79aff77ed79489653");
       ("dfsssp", "a348ec6c3b2b51f7eebd3a161ed9b97f");
       ("lash", "91d773b3d926a5d32768fb56059372e7");
       ("static-cdg", "75d16c60140738dfdf2eb83b4065001e");
       ("nue", "d7981f5844ad9e84caff22fcc6930cd0") ]);
    ("dense16",
     [ ("minhop", "64e9ec43ca902df8278d9fd39e308aeb");
       ("sssp", "dc3d09aeb3bb8381c9a03cd386d81740");
       ("updown", "3e8fa818410f642a3fede44a6576d035");
       ("dfsssp", "1961a42ef4e22b3673cd3ffa5ccd90bd");
       ("lash", "dbab98d9f204fb2a24c171f923e1cba4");
       ("static-cdg", "6f044e0889576e89d7bde44cdbbbe8ea");
       ("nue", "f1090e30fde85ea2846b9d0c6764da9f") ]);
    ("random20",
     [ ("minhop", "00bc3825ac6e89b3b913107ca70aa4ee");
       ("sssp", "d4eff65c2905dad412f16ddf7f1bf759");
       ("updown", "3c11a0176a739929cff1eab41a12ce63");
       ("dfsssp", "b29b57a14b00f480360d11d0210e43b0");
       ("lash", "c216630cf56f47cb863916fe8805986d");
       ("static-cdg", "78f152ca80b12db1d91fc37d76eab7a0");
       ("nue", "df454ab5f7488267a775cc03f17520ce") ]);
    ("tree442",
     [ ("minhop", "62463767c834da5ccafa87a1f985d4f0");
       ("sssp", "8268a80c3ad236f676c3964225f39d69");
       ("updown", "779b592e5e99c408525f4de06c076869");
       ("dfsssp", "35c3da3d4c85a09cf0960f3070bdd962");
       ("lash", "3a4e524493d9923a8e84d9b21ee622f6");
       ("static-cdg", "e8f98084bceead520dbb17611afa1f91");
       ("nue", "26a43e51a4820da1f9a846c613fbc54a");
       ("fattree", "e34b2bd2ae36f816d889264d03b6ee97") ]) ]

(* [Experiment.metrics_to_json] digests of the same tables. *)
let recorded_metrics =
  [ ("ring5",
     [ ("minhop", "53767ea4a99fdd954305f09ac7fa514d");
       ("sssp", "24ad079c72ed26e3366cec065a209e7f");
       ("updown", "980c8f925a6ea6dc942311af812918d6");
       ("dfsssp", "24ad079c72ed26e3366cec065a209e7f");
       ("lash", "3d2a2096d8d722ba77af42c523507fea");
       ("static-cdg", "0f8add64cd649448682669f290a64303");
       ("nue", "593848f486224345fb47008bc99bb461") ]);
    ("ring8",
     [ ("minhop", "dad36840de78a886d553e5c12a27fe8e");
       ("sssp", "dad36840de78a886d553e5c12a27fe8e");
       ("updown", "cf8740ab79b2c6eae6a2eb7092a5f69e");
       ("dfsssp", "20e9458bb60a7aa8ba0dca65a6c555dc");
       ("lash", "9351ab8331dff8bda0c43950cd8354aa");
       ("static-cdg", "60fb512a5ada6b25a15c15f8429a6de0");
       ("nue", "6b13db7736984b0eab12492f30b259a1") ]);
    ("line6",
     [ ("minhop", "a1d05f8ade9e8e22e8eb6c0c7024d1fe");
       ("sssp", "a1d05f8ade9e8e22e8eb6c0c7024d1fe");
       ("updown", "a1d05f8ade9e8e22e8eb6c0c7024d1fe");
       ("dfsssp", "a1d05f8ade9e8e22e8eb6c0c7024d1fe");
       ("lash", "a1d05f8ade9e8e22e8eb6c0c7024d1fe");
       ("static-cdg", "e694ec4810d93a0d921be3ede42b2458");
       ("nue", "36f42ce93f41fe8830c5cd4f6bf093e5") ]);
    ("torus333",
     [ ("minhop", "91b28e86459fd1ee51d546b952511f49");
       ("sssp", "576216ce52419dc240f30bf7776ed895");
       ("updown", "106e167cacab52e1591b13f40d65e055");
       ("dfsssp", "90ae7c5b4770f4333c6f034a86283c76");
       ("lash", "af0bc56ce785ac4d2bef231c18138864");
       ("static-cdg", "f6a68b50a59593f41364b203e373fe63");
       ("nue", "aefebef6c0b24f0b1c78ec05890f2dbd");
       ("torus2qos", "8d9cc8a4b148210994a4ff43c3fc3fa1") ]);
    ("torus443",
     [ ("minhop", "fe8f2d232da40cca9f0f5e0a2363dddf");
       ("sssp", "f95d1ed94de4cde2b4b6475004c19177");
       ("updown", "224f5ec6a592f73001fda507bcfee9b9");
       ("dfsssp", "ed57e1f0f990104ac5b376d942400e53");
       ("lash", "b4da45aa1d1e9a1b3804da8e333188cc");
       ("static-cdg", "fee12478b7705936f6137d1b3464f65f");
       ("nue", "06f9f6c0635b73784832a1a9f208a16e");
       ("torus2qos", "64723b60e23f40a89a79da6f088b48c8") ]);
    ("random12",
     [ ("minhop", "cb2bd0d8f91039d9e3cae3d49c90b49f");
       ("sssp", "2d6256bb2fe1e3a1b4482efec7fd6863");
       ("updown", "9879e9206ca1e8d81d3bacaf55f4af89");
       ("dfsssp", "77e73b7f4115fd2324cef0dc04b32211");
       ("lash", "c6f2d00747a2ffd5a6ccf7a93836499f");
       ("static-cdg", "927be9a4a5361c0ede7d30e0648dae88");
       ("nue", "6751cfbdc61cca6484a76201412090f5") ]);
    ("dense16",
     [ ("minhop", "8fb2b587fb83e4cc4bc52e0c757aba04");
       ("sssp", "32b52f37c26e8524e2160b90c56ef197");
       ("updown", "ca90ac5adc1700acef102ae4446979cc");
       ("dfsssp", "995b082a63d6089ea7ae2f02b4000221");
       ("lash", "4aa77717521d291af46691799dda5f9b");
       ("static-cdg", "3d219ce2e44f3e1e80d261f41546fb95");
       ("nue", "a4acf8c125556026f3aca6fdcf1a964d") ]);
    ("random20",
     [ ("minhop", "6ad076658da1d0e8d7646fa0e7adf6d7");
       ("sssp", "ff0d114e7fab6056b13488a47113291b");
       ("updown", "acfc04c3c36957eb3c3d20c50f598d64");
       ("dfsssp", "10038120ece1671b2198776ce04ce01f");
       ("lash", "860c634bfbdb7e54d75202e089f9d49d");
       ("static-cdg", "282935f1836f962fd2af210cd80589d1");
       ("nue", "60013dd22d82d7a36a81931783de30cc") ]);
    ("tree442",
     [ ("minhop", "9d361559e416f87aff199c3f9d143ea3");
       ("sssp", "9d361559e416f87aff199c3f9d143ea3");
       ("updown", "86bfe13fbcda8148cc9db32af5a938e9");
       ("dfsssp", "9d361559e416f87aff199c3f9d143ea3");
       ("lash", "86bfe13fbcda8148cc9db32af5a938e9");
       ("static-cdg", "51ca78d0463652b0add1e4d9bccd7a2e");
       ("nue", "7aff430f508ca6660fc6b839c9cb9435");
       ("fattree", "8c1c45648b7e5c5d96ae8d628d218437") ]) ]

(* [check name table expected] for every engine pinned in [digests]. *)
let pinned_case title digests check (name, build) =
  Alcotest.test_case (title ^ name) `Quick (fun () ->
      let built = build () in
      List.iter
        (fun (engine, expected) ->
           match Engine.route engine (Experiment.spec ~vcs:8 built) with
           | Error e ->
             Alcotest.failf "%s/%s: %s" name engine (Engine_error.to_string e)
           | Ok table ->
             Alcotest.(check string) (name ^ "/" ^ engine) expected
               (check table))
        (List.assoc name digests))

let equivalence_case =
  pinned_case "digests: " recorded Helpers.table_fingerprint

(* The statistics read from the same tables: the verify report, lanes
   used, edge forwarding index, path lengths and throughput model. A
   change to how they are computed must leave these unchanged. *)
let metrics_case =
  pinned_case "metrics digests: " recorded_metrics Helpers.metrics_fingerprint

(* {1 Adjacency pool} *)

let test_adjacency_basic () =
  let a = Adjacency.create 5 in
  Alcotest.(check int) "vertices" 5 (Adjacency.num_vertices a);
  Alcotest.(check bool) "first add is new" true (Adjacency.add a 1 3);
  Alcotest.(check bool) "second add bumps" false (Adjacency.add a 1 3);
  Alcotest.(check bool) "other succ" true (Adjacency.add a 1 0);
  Alcotest.(check int) "degree" 2 (Adjacency.degree a 1);
  Alcotest.(check int) "multiplicity" 2 (Adjacency.multiplicity a 1 3);
  Alcotest.(check int) "absent multiplicity" 0 (Adjacency.multiplicity a 3 1);
  Alcotest.(check bool) "mem" true (Adjacency.mem a 1 3);
  Alcotest.(check bool) "not mem" false (Adjacency.mem a 3 1);
  Alcotest.(check int) "distinct edges" 2 (Adjacency.distinct_edges a);
  (* Successors iterate in ascending order regardless of insertion. *)
  let order = ref [] in
  Adjacency.iter a 1 (fun v -> order := v :: !order);
  Alcotest.(check (list int)) "ascending succ" [ 0; 3 ] (List.rev !order);
  (* remove peels one multiplicity at a time. *)
  Alcotest.(check bool) "peel copy" false (Adjacency.remove a 1 3);
  Alcotest.(check int) "one copy left" 1 (Adjacency.multiplicity a 1 3);
  Alcotest.(check bool) "last copy" true (Adjacency.remove a 1 3);
  Alcotest.(check bool) "gone" false (Adjacency.mem a 1 3);
  Alcotest.check_raises "absent remove"
    (Invalid_argument "Adjacency.remove: absent edge") (fun () ->
        ignore (Adjacency.remove a 1 3))

(* Segment growth and pool compaction: a complete digraph on 32
   vertices makes every segment relocate through caps 4/8/16/32,
   abandoning enough pool words to cross the compaction threshold. *)
let test_adjacency_growth () =
  let n = 32 in
  let a = Adjacency.create n in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then edges := (u, v) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  Prng.shuffle (Prng.create 11) edges;
  Array.iter (fun (u, v) -> ignore (Adjacency.add a u v)) edges;
  Alcotest.(check int) "all edges" (n * (n - 1)) (Adjacency.distinct_edges a);
  for u = 0 to n - 1 do
    let prev = ref (-1) in
    Adjacency.iter a u (fun v ->
        if v <= !prev then Alcotest.failf "succ of %d not ascending" u;
        prev := v)
  done;
  (* Tear everything down again in a different shuffled order. *)
  Prng.shuffle (Prng.create 13) edges;
  Array.iter
    (fun (u, v) ->
       Alcotest.(check bool) "tear-down" true (Adjacency.remove a u v))
    edges;
  Alcotest.(check int) "empty" 0 (Adjacency.distinct_edges a);
  for u = 0 to n - 1 do
    Alcotest.(check int) "empty degree" 0 (Adjacency.degree a u)
  done

(* Model test: random add/remove churn against a Hashtbl reference. *)
let test_adjacency_model () =
  let n = 16 in
  let a = Adjacency.create n in
  let model = Hashtbl.create 64 in (* (u, v) -> multiplicity *)
  let mult u v = Option.value ~default:0 (Hashtbl.find_opt model (u, v)) in
  let prng = Prng.create 99 in
  for step = 1 to 4000 do
    let u = Prng.int prng n in
    let v = (u + 1 + Prng.int prng (n - 1)) mod n in
    let m = mult u v in
    if m > 0 && Prng.int prng 5 < 2 then begin
      let gone = Adjacency.remove a u v in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: remove verdict" step)
        (m = 1) gone;
      if m = 1 then Hashtbl.remove model (u, v)
      else Hashtbl.replace model (u, v) (m - 1)
    end
    else begin
      let fresh = Adjacency.add a u v in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: add verdict" step)
        (m = 0) fresh;
      Hashtbl.replace model (u, v) (m + 1)
    end;
    Alcotest.(check int)
      (Printf.sprintf "step %d: multiplicity" step)
      (mult u v)
      (Adjacency.multiplicity a u v)
  done;
  (* Full final sweep: pool contents == model contents. *)
  Alcotest.(check int) "final edge count" (Hashtbl.length model)
    (Adjacency.distinct_edges a);
  for u = 0 to n - 1 do
    Adjacency.fold a u
      (fun acc v ->
         Alcotest.(check int)
           (Printf.sprintf "final mult %d->%d" u v)
           (mult u v)
           (Adjacency.multiplicity a u v);
         acc + 1)
      0
    |> Alcotest.(check int) (Printf.sprintf "final degree %d" u)
         (Adjacency.degree a u)
  done

(* {1 Large-topology generators}

   The generators must build 10k+-switch fabrics with dense channel
   ids, a consistent reverse involution, and sane terminal wiring.
   Route-time behavior at this scale is covered by the scale bench and
   the Slow property test below. *)

let check_channel_invariants net =
  let nc = Network.num_channels net in
  for c = 0 to nc - 1 do
    let r = Network.rev net c in
    if Network.rev net r <> c then Alcotest.failf "rev not involutive at %d" c;
    if Network.src net r <> Network.dst net c then
      Alcotest.failf "rev endpoints mismatch at %d" c
  done

let test_big_torus () =
  let t = Topology.torus3d ~dims:(22, 22, 22) ~terminals_per_switch:1 () in
  let net = t.Topology.net in
  Alcotest.(check int) "switches" 10648 (Network.num_switches net);
  Alcotest.(check int) "terminals" 10648 (Network.num_terminals net);
  (* Each switch has 6 torus neighbors and 1 terminal. *)
  Alcotest.(check int) "channels"
    ((10648 * 6) + (2 * 10648))
    (Network.num_channels net);
  check_channel_invariants net

let test_big_dragonfly () =
  let net = Topology.dragonfly ~a:24 ~p:1 ~h:12 ~g:140 () in
  Alcotest.(check int) "switches" (24 * 140) (Network.num_switches net);
  Alcotest.(check int) "terminals" (24 * 140) (Network.num_terminals net);
  check_channel_invariants net

let test_big_fat_tree () =
  let net = Topology.kary_ntree ~k:40 ~n:3 ~terminals_per_leaf:1 () in
  Alcotest.(check int) "switches" 4800 (Network.num_switches net);
  check_channel_invariants net

(* {1 Property run at fabric scale (Slow)}

   One ≥5k-switch topology routed end to end with sampled destinations
   and fully verified (connectivity, CDG acyclicity, deadlock freedom).
   An 18x18x18 torus is 5832 switches; minhop covers the oblivious
   path, nue the full complete-CDG machinery. *)

let test_scale_property () =
  let t = Topology.torus3d ~dims:(18, 18, 18) ~terminals_per_switch:1 () in
  let net = t.Topology.net in
  Alcotest.(check int) "switches" 5832 (Network.num_switches net);
  let terms = Array.copy (Network.terminals net) in
  Prng.shuffle (Prng.create 9) terms;
  let dests = Array.sub terms 0 12 in
  Array.sort compare dests;
  let route engine =
    match Engine.route engine (Engine.spec ~vcs:4 ~torus:t ~dests net) with
    | Error e -> Alcotest.failf "%s: %s" engine (Engine_error.to_string e)
    | Ok table -> table
  in
  (* minhop is the oblivious baseline: connected, but (correctly) not
     deadlock-free on a torus. Only nue gets the full verdict. *)
  let mh = Nue_routing.Verify.check (route "minhop") in
  Alcotest.(check bool) "torus18/minhop: connected" true
    mh.Nue_routing.Verify.connected;
  Helpers.check_table_valid "torus18/nue" (route "nue")

let suite =
  [ ( "compact",
      List.map equivalence_case fixtures
    @ List.map metrics_case fixtures
    @ [ Alcotest.test_case "adjacency basics" `Quick test_adjacency_basic;
        Alcotest.test_case "adjacency growth and teardown" `Quick
          test_adjacency_growth;
        Alcotest.test_case "adjacency vs reference model" `Quick
          test_adjacency_model;
        Alcotest.test_case "torus generator at 10k switches" `Quick
          test_big_torus;
        Alcotest.test_case "dragonfly generator at 3k switches" `Quick
          test_big_dragonfly;
        Alcotest.test_case "fat-tree generator at 4.8k switches" `Quick
          test_big_fat_tree;
        Alcotest.test_case "route and verify a 5832-switch torus" `Slow
          test_scale_property ] ) ]
