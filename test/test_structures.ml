(* Unit and property tests for lib/structures. *)

module Prng = Nue_structures.Prng
module Fib_heap = Nue_structures.Fib_heap
module Bitset = Nue_structures.Bitset

let test_case = Alcotest.test_case

(* {1 Prng} *)

let prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.int64 a = Prng.int64 b)

let prng_int_bounds () =
  let p = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let prng_int_covers () =
  let p = Prng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int p 8) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all Fun.id seen)

let prng_float_bounds () =
  let p = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of range"
  done

let prng_copy_independent () =
  let a = Prng.create 9 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copies agree" (Prng.int64 a) (Prng.int64 b);
  ignore (Prng.int64 a);
  let va = Prng.int64 a and vb = Prng.int64 b in
  Alcotest.(check bool) "then diverge by state" false (va = vb)

let prng_split_independent () =
  let a = Prng.create 13 in
  let b = Prng.split a in
  Alcotest.(check bool) "split streams differ" false
    (Prng.int64 a = Prng.int64 b)

let prng_shuffle_permutation () =
  let p = Prng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prng_sample_without_replacement () =
  let p = Prng.create 23 in
  let s = Prng.sample_without_replacement p 10 1000 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
       if v < 0 || v >= 1000 then Alcotest.fail "out of range";
       if Hashtbl.mem tbl v then Alcotest.fail "duplicate";
       Hashtbl.add tbl v ())
    s;
  (* Dense case takes the shuffle path. *)
  let s2 = Prng.sample_without_replacement p 9 10 in
  Alcotest.(check int) "dense size" 9 (Array.length s2)

(* {1 Fib_heap} *)

let heap_insert_extract_sorted () =
  let h = Fib_heap.create () and key = [| 0.0 |] in
  let keys = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 2.5 ] in
  List.iteri (fun i k -> Fib_heap.insert h ~key:k i) keys;
  let out = ref [] in
  let rec drain () =
    let i = Fib_heap.extract_min h key in
    if i >= 0 then begin
      Alcotest.(check (float 0.0)) "key of payload" (List.nth keys i) key.(0);
      out := key.(0) :: !out;
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted output" (List.rev (List.sort compare keys)) !out;
  Alcotest.(check int) "empty pop" (-1) (Fib_heap.extract_min h key);
  Alcotest.(check (float 0.0)) "empty pop leaves the key" 5.0 key.(0);
  Alcotest.check_raises "negative payload"
    (Invalid_argument "Fib_heap.insert: negative payload") (fun () ->
        Fib_heap.insert h ~key:1.0 (-1))

(* {1 Bitset} *)

let bitset_basics () =
  let s = Bitset.create 200 in
  Alcotest.(check int) "capacity" 200 (Bitset.capacity s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 199 ] (Bitset.to_list s);
  Bitset.clear s;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal s)

let bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
        Bitset.add s 10)

let bitset_iter_order () =
  let s = Bitset.create 50 in
  List.iter (Bitset.add s) [ 40; 3; 17 ];
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  Alcotest.(check (list int)) "increasing order" [ 3; 17; 40 ]
    (List.rev !acc)

(* {1 QCheck properties} *)

let qcheck_heap_sort =
  QCheck2.Test.make ~name:"fib_heap sorts any float list" ~count:200
    QCheck2.Gen.(list (float_bound_exclusive 1e6))
    (fun keys ->
       let h = Fib_heap.create () and key = [| 0.0 |] in
       List.iteri (fun i k -> Fib_heap.insert h ~key:k i) keys;
       let rec drain acc =
         if Fib_heap.extract_min h key < 0 then List.rev acc
         else drain (key.(0) :: acc)
       in
       drain [] = List.sort compare keys)

let qcheck_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with a set model" ~count:200
    QCheck2.Gen.(list (pair (int_range 0 99) bool))
    (fun ops ->
       let s = Bitset.create 100 in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (i, add) ->
            if add then begin
              Bitset.add s i;
              Hashtbl.replace model i ()
            end
            else begin
              Bitset.remove s i;
              Hashtbl.remove model i
            end)
         ops;
       Bitset.cardinal s = Hashtbl.length model
       && List.for_all (fun (i, _) -> Bitset.mem s i = Hashtbl.mem model i) ops)

let suite =
  [ ("prng",
     [ test_case "deterministic" `Quick prng_deterministic;
       test_case "seed sensitivity" `Quick prng_seed_sensitivity;
       test_case "int bounds" `Quick prng_int_bounds;
       test_case "int covers residues" `Quick prng_int_covers;
       test_case "float bounds" `Quick prng_float_bounds;
       test_case "copy independent" `Quick prng_copy_independent;
       test_case "split independent" `Quick prng_split_independent;
       test_case "shuffle is a permutation" `Quick prng_shuffle_permutation;
       test_case "sample without replacement" `Quick
         prng_sample_without_replacement ]);
    ("fib_heap",
     [ test_case "insert/extract sorted" `Quick heap_insert_extract_sorted;
       QCheck_alcotest.to_alcotest qcheck_heap_sort ]);
    ("bitset",
     [ test_case "basics" `Quick bitset_basics;
       test_case "bounds" `Quick bitset_bounds;
       test_case "iter order" `Quick bitset_iter_order;
       QCheck_alcotest.to_alcotest qcheck_bitset_model ]) ]
