(* Sparse little-endian byte-addressable memory with explicit mapping.

   The simulated machine's physical memory. Backed by 64 KiB chunks that must
   be explicitly [map]ped before use; an access to an unmapped chunk raises
   [Fault], which the Alpha interpreter and the DBT runtime turn into a
   precise memory trap. This gives us a realistic "unmapped page" trap source
   for the precise-trap experiments.

   Mapping is copy-on-write: a freshly mapped chunk points at the shared,
   never-written [zero_chunk] and gets private backing on its first store.
   A VM maps ~88 chunks (heap, stack, dispatch table) of which a short
   guest writes a handful; only those are ever allocated. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

exception Fault of int
(** [Fault addr] is raised on any access to an unmapped address. *)

type t = {
  chunks : (int, Bytes.t) Hashtbl.t;
  mutable reads : int;  (* accounting, used by tests *)
  mutable writes : int;
  (* Optional write-set tracking: when [track_dirty] is on, every store
     records its chunk index in [dirty]. Off by default so the hot
     simulation path pays only a branch; the differential oracle turns it
     on to confine per-boundary memory comparison to written pages. *)
  mutable track_dirty : bool;
  dirty : (int, unit) Hashtbl.t;
}

let create () =
  {
    chunks = Hashtbl.create 64;
    reads = 0;
    writes = 0;
    track_dirty = false;
    dirty = Hashtbl.create 16;
  }

(* Backing of every mapped chunk that has not been stored to since it was
   mapped or zeroed. Shared by all memories in the process; never written. *)
let zero_chunk = Bytes.make chunk_size '\000'

let copy t =
  let chunks = Hashtbl.create (Hashtbl.length t.chunks) in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace chunks k (if v == zero_chunk then v else Bytes.copy v))
    t.chunks;
  {
    chunks;
    reads = t.reads;
    writes = t.writes;
    track_dirty = t.track_dirty;
    dirty = Hashtbl.copy t.dirty;
  }

let set_dirty_tracking t on = t.track_dirty <- on
let clear_dirty t = Hashtbl.reset t.dirty

let dirty_chunks t =
  Hashtbl.fold (fun c () acc -> c :: acc) t.dirty [] |> List.sort Int.compare

let chunk_bytes t c = Hashtbl.find_opt t.chunks c

let mark t addr =
  if t.track_dirty then Hashtbl.replace t.dirty (addr lsr chunk_bits) ()

(* Map every chunk overlapping [addr, addr+len). Freshly mapped chunks share
   [zero_chunk]. Mapping an already-mapped chunk is a no-op. *)
let map t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr chunk_bits and last = (addr + len - 1) lsr chunk_bits in
    for c = first to last do
      if not (Hashtbl.mem t.chunks c) then Hashtbl.replace t.chunks c zero_chunk
    done
  end

let is_mapped t addr = Hashtbl.mem t.chunks (addr lsr chunk_bits)

let chunk_of t addr =
  match Hashtbl.find_opt t.chunks (addr lsr chunk_bits) with
  | Some b -> b
  | None -> raise (Fault addr)

(* The store path: a chunk still backed by [zero_chunk] is given a private
   zeroed copy before the write lands. *)
let wchunk_of t addr =
  let c = addr lsr chunk_bits in
  match Hashtbl.find_opt t.chunks c with
  | Some b when b != zero_chunk -> b
  | Some _ ->
    let b = Bytes.make chunk_size '\000' in
    Hashtbl.replace t.chunks c b;
    b
  | None -> raise (Fault addr)

(* Single-byte accessors; multi-byte accessors decompose at chunk borders
   (rare) and use fast Bytes primitives within a chunk. *)

let get_u8 t addr =
  t.reads <- t.reads + 1;
  Char.code (Bytes.unsafe_get (chunk_of t addr) (addr land (chunk_size - 1)))

let set_u8 t addr v =
  t.writes <- t.writes + 1;
  mark t addr;
  Bytes.unsafe_set (wchunk_of t addr) (addr land (chunk_size - 1))
    (Char.unsafe_chr (v land 0xff))

let in_chunk addr width = addr land (chunk_size - 1) <= chunk_size - width

let get_u16 t addr =
  if in_chunk addr 2 then begin
    t.reads <- t.reads + 1;
    Bytes.get_uint16_le (chunk_of t addr) (addr land (chunk_size - 1))
  end
  else get_u8 t addr lor (get_u8 t (addr + 1) lsl 8)

let set_u16 t addr v =
  if in_chunk addr 2 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_uint16_le (wchunk_of t addr) (addr land (chunk_size - 1))
      (v land 0xffff)
  end
  else begin
    set_u8 t addr v;
    set_u8 t (addr + 1) (v lsr 8)
  end

let get_u32 t addr =
  if in_chunk addr 4 then begin
    t.reads <- t.reads + 1;
    Int32.to_int (Bytes.get_int32_le (chunk_of t addr) (addr land (chunk_size - 1)))
    land 0xffffffff
  end
  else get_u16 t addr lor (get_u16 t (addr + 2) lsl 16)

let set_u32 t addr v =
  if in_chunk addr 4 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_int32_le (wchunk_of t addr) (addr land (chunk_size - 1))
      (Int32.of_int (v land 0xffffffff))
  end
  else begin
    set_u16 t addr v;
    set_u16 t (addr + 2) (v lsr 16)
  end

let get_i64 t addr =
  if in_chunk addr 8 then begin
    t.reads <- t.reads + 1;
    Bytes.get_int64_le (chunk_of t addr) (addr land (chunk_size - 1))
  end
  else
    Int64.logor
      (Int64.of_int (get_u32 t addr))
      (Int64.shift_left (Int64.of_int (get_u32 t (addr + 4))) 32)

let set_i64 t addr v =
  if in_chunk addr 8 then begin
    t.writes <- t.writes + 1;
    mark t addr;
    Bytes.set_int64_le (wchunk_of t addr) (addr land (chunk_size - 1)) v
  end
  else begin
    set_u32 t addr (Int64.to_int (Int64.logand v 0xffffffffL));
    set_u32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* Split [addr, addr+len) at chunk borders: [f a off n] covers the [n]
   bytes from address [a], at offset [off] in its chunk. *)
let iter_segments ~addr ~len f =
  let stop = addr + len in
  let a = ref addr in
  while !a < stop do
    let off = !a land (chunk_size - 1) in
    let n = Int.min (chunk_size - off) (stop - !a) in
    f !a off n;
    a := !a + n
  done

(* Zero a mapped range (used when the VM flushes its dispatch table). Whole
   chunks go back to [zero_chunk]; a partial head or tail chunk is cleared in
   place, unless it is still [zero_chunk]. *)
let fill_zero t ~addr ~len =
  iter_segments ~addr ~len (fun a off n ->
      mark t a;
      match Hashtbl.find_opt t.chunks (a lsr chunk_bits) with
      | None -> raise (Fault a)
      | Some _ when n = chunk_size ->
        Hashtbl.replace t.chunks (a lsr chunk_bits) zero_chunk
      | Some b -> if b != zero_chunk then Bytes.fill b off n '\000')

(* Bulk write used by the program loader: one blit per chunk segment. *)
let blit_string t ~addr s =
  iter_segments ~addr ~len:(String.length s) (fun a off n ->
      mark t a;
      Bytes.blit_string s (a - addr) (wchunk_of t a) off n;
      t.writes <- t.writes + n)

(* FNV-1a checksum over a mapped range; used by tests to compare final memory
   images between execution modes. *)
let checksum t ~addr ~len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    let b = if is_mapped t (addr + i) then get_u8 t (addr + i) else 0 in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001b3L
  done;
  !h
