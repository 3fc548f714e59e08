(* G-share conditional branch direction predictor.

   Table 1 configuration: 16K-entry table of 2-bit saturating counters
   indexed by PC xor a 12-bit global history register. *)

type t = {
  table : Bytes.t;          (* 2-bit counters, one byte each *)
  mask : int;
  hist_bits : int;
  mutable hist : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(entries = 16 * 1024) ?(hist_bits = 12) () =
  assert (entries land (entries - 1) = 0);
  {
    table = Bytes.make entries '\002' (* weakly taken *);
    mask = entries - 1;
    hist_bits;
    hist = 0;
    lookups = 0;
    mispredicts = 0;
  }

let index t pc = (pc lsr 2) lxor t.hist land t.mask

(* Predict direction for the branch at [pc] without updating any state. *)
let predict t pc = Char.code (Bytes.get t.table (index t pc)) >= 2

(* Predict and train in one step: returns [true] if the prediction matched
   [taken]. Updates the counter and the global history with the outcome. *)
let predict_update t pc ~taken =
  t.lookups <- t.lookups + 1;
  let i = index t pc in
  let c = Char.code (Bytes.get t.table i) in
  let pred = c >= 2 in
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.table i (Char.chr c');
  t.hist <- ((t.hist lsl 1) lor if taken then 1 else 0) land ((1 lsl t.hist_bits) - 1);
  if pred <> taken then t.mispredicts <- t.mispredicts + 1;
  pred = taken
