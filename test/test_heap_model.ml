(* Tests for the Fibonacci heap's two operations.

   A model test mirrors random insert / extract-min interleavings, with
   many duplicate keys, into a sorted association list. A golden test
   pins the payload order of a fixed equal-key stream: Nue's and
   static-cdg's tables depend on how the heap breaks ties, so a change
   to the linking rule fails here by name, not only in the table
   digests. *)

module Fib_heap = Nue_structures.Fib_heap
module Prng = Nue_structures.Prng

let test_case = Alcotest.test_case

(* Reference model: (id, key) pairs sorted by key, so the head is a
   minimum. ids are unique so payloads are checkable. *)
module Model = struct
  type t = (int * float) list ref

  let create () : t = ref []

  let insert (m : t) id key =
    m := List.merge (fun (_, a) (_, b) -> compare a b) [ (id, key) ] !m

  let min_key (m : t) = match !m with [] -> None | (_, k) :: _ -> Some k

  let key (m : t) id = List.assoc_opt id !m

  let remove (m : t) id = m := List.remove_assoc id !m
end

(* Pop once from both. The heap must be empty exactly when the model
   is, return a minimum key, and name a live payload carrying that
   key; which of several equal-key payloads comes out is the golden
   test's business. *)
let pop_and_check ctx heap model =
  match (Fib_heap.extract_min heap, Model.min_key model) with
  | None, None -> false
  | None, Some _ -> Alcotest.failf "%s: heap empty, model not" ctx
  | Some _, None -> Alcotest.failf "%s: model empty, heap not" ctx
  | Some (id, k), Some mk ->
    Alcotest.(check (float 0.0)) (ctx ^ ": minimum key") mk k;
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "%s: payload %d key" ctx id)
      (Some k) (Model.key model id);
    Model.remove model id;
    true

let random_ops_vs_model () =
  let prng = Prng.create 2026 in
  for run = 1 to 40 do
    let heap = Fib_heap.create () in
    let model = Model.create () in
    (* Keys from a small range, so most inserts duplicate a live key. *)
    let nkeys = 1 + Prng.int prng 8 in
    for step = 1 to 150 do
      let ctx = Printf.sprintf "run %d step %d" run step in
      if Prng.int prng 100 < 55 then begin
        let k = float_of_int (Prng.int prng nkeys) in
        Fib_heap.insert heap ~key:k step;
        Model.insert model step k
      end
      else ignore (pop_and_check ctx heap model)
    done;
    let ctx = Printf.sprintf "run %d drain" run in
    while pop_and_check ctx heap model do () done
  done

(* Payload order of a fixed equal-key stream: 60 inserts with keys in
   {0, 1, 2, 3}, extracts after every fifth and every eleventh insert,
   then a full drain. Recorded from the heap whose tie order the pinned
   table digests were built with. *)
let golden_order =
  [ 0; 4; 9; 10; 5; 14; 20; 24; 29; 30; 25; 34; 40; 44; 49; 54; 50; 59; 55;
    19; 15; 39; 35; 45; 48; 13; 28; 53; 58; 8; 23; 33; 43; 18; 38; 3; 42; 7;
    12; 52; 27; 57; 2; 37; 22; 17; 47; 32; 6; 21; 36; 1; 46; 31; 51; 41; 56;
    11; 16; 26 ]

let equal_key_order_golden () =
  let heap = Fib_heap.create () in
  let out = ref [] in
  let pop () =
    match Fib_heap.extract_min heap with
    | Some (v, _) -> out := v :: !out
    | None -> ()
  in
  for i = 0 to 59 do
    Fib_heap.insert heap ~key:(float_of_int (((i * 7) + (i / 5)) mod 4)) i;
    if i mod 5 = 4 then pop ();
    if i mod 11 = 10 then pop ()
  done;
  for _ = 1 to 60 do pop () done;
  Alcotest.(check (list int)) "equal-key pop order" golden_order
    (List.rev !out)

let suite =
  [ ("heap:model",
     [ test_case "random ops vs sorted-list model" `Quick random_ops_vs_model;
       test_case "equal-key pop order golden" `Quick equal_key_order_golden ]) ]
