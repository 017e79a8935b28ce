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
  let key = [| nan |] in
  match (Fib_heap.extract_min heap key, Model.min_key model) with
  | -1, None -> false
  | -1, Some _ -> Alcotest.failf "%s: heap empty, model not" ctx
  | _, None -> Alcotest.failf "%s: model empty, heap not" ctx
  | id, Some mk ->
    let k = key.(0) in
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
  let heap = Fib_heap.create () and key = [| 0.0 |] in
  let out = ref [] in
  let pop () =
    let v = Fib_heap.extract_min heap key in
    if v >= 0 then out := v :: !out
  in
  for i = 0 to 59 do
    Fib_heap.insert heap ~key:(float_of_int (((i * 7) + (i / 5)) mod 4)) i;
    if i mod 5 = 4 then pop ();
    if i mod 11 = 10 then pop ()
  done;
  for _ = 1 to 60 do pop () done;
  Alcotest.(check (list int)) "equal-key pop order" golden_order
    (List.rev !out)

(* The same tie order on a long stream, deep enough for high tree
   degrees: three fill rounds of 2,000 inserts with keys from 8 values
   (a fixed LCG), an extract after every third and every seventeenth
   insert, and a full drain after each round, so one heap is drained
   and refilled twice. 12,000 operations in all; the MD5 of the
   payload sequence was recorded from the heap the pinned table digests
   were built with. *)
let long_stream_digest = "c10267bf00ffb956cc543a8fdec40c62"

let long_stream_order_golden () =
  let heap = Fib_heap.create () and key = [| 0.0 |] in
  let buf = Buffer.create 65536 in
  let pops = ref 0 in
  let pop () =
    let v = Fib_heap.extract_min heap key in
    if v >= 0 then begin
      incr pops;
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ' '
    end;
    v >= 0
  in
  let x = ref 12345 in
  for round = 0 to 2 do
    for i = 0 to 1999 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Fib_heap.insert heap ~key:(float_of_int ((!x lsr 16) land 7))
        ((round * 2000) + i);
      if i mod 3 = 2 then ignore (pop ());
      if i mod 17 = 16 then ignore (pop ())
    done;
    while pop () do () done
  done;
  Alcotest.(check int) "every insert popped" 6000 !pops;
  Alcotest.(check string) "long-stream pop order" long_stream_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A reused heap allocates nothing: a pop writes its key into the
   caller's float array and returns the payload as an int. 100 rounds
   of 100 inserts and a full drain are 10,000 insert/extract pairs; the
   keys are boxed once, up front, in a list. *)
let words_per_pop = 0

let allocation_per_pop () =
  let heap = Fib_heap.create () and key = [| 0.0 |] in
  let keys = List.init 100 (fun i -> float_of_int (((i * 5) + (i / 8)) land 7)) in
  let rec fill i = function
    | [] -> ()
    | k :: rest ->
      Fib_heap.insert heap ~key:k i;
      fill (i + 1) rest
  in
  let rec drain n =
    if Fib_heap.extract_min heap key < 0 then n else drain (n + 1)
  in
  (* The first round grows the arrays. *)
  fill 0 keys;
  ignore (drain 0);
  let pops = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    fill 0 keys;
    pops := !pops + drain 0
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "pairs" 10_000 !pops;
  (* The two Gc.minor_words calls box a float each. *)
  let limit = float_of_int ((words_per_pop * !pops) + 4) in
  if words > limit then
    Alcotest.failf "%.0f minor words for %d pops (limit %.0f)" words !pops limit

let suite =
  [ ("heap:model",
     [ test_case "random ops vs sorted-list model" `Quick random_ops_vs_model;
       test_case "equal-key pop order golden" `Quick equal_key_order_golden;
       test_case "long-stream pop order golden" `Quick long_stream_order_golden;
       test_case "allocation per pop" `Quick allocation_per_pop ]) ]
