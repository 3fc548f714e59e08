(* Sparse little-endian byte-addressable memory with explicit mapping.

   The simulated machine's physical memory. Backed by 64 KiB chunks that must
   be explicitly [map]ped before use; an access to an unmapped chunk raises
   [Fault], which the Alpha interpreter and the DBT runtime turn into a
   precise memory trap. This gives us a realistic "unmapped page" trap source
   for the precise-trap experiments.

   The chunks live in a flat page table indexed by chunk number, sized by the
   highest mapped chunk (about 260 entries for every guest: the dispatch
   table sits at 16 MiB). An unmapped chunk, inside the table or above it,
   is the [unmapped] sentinel, so a lookup is one bounds test and one array
   read: no hashing, no comparison, no allocation.

   Mapping is copy-on-write: a freshly mapped chunk points at the shared,
   never-written [zero_chunk] and gets private backing on its first store.
   A VM maps ~88 chunks (heap, stack, dispatch table) of which a short
   guest writes a handful; only those are ever allocated. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

exception Fault of int
(** [Fault addr] is raised on any access to an unmapped address. *)

(* The page of every unmapped chunk. Empty, so it can never be mistaken for
   (or written as) a real page. *)
let unmapped = Bytes.create 0

(* Backing of every mapped chunk that has not been stored to since it was
   mapped or zeroed. Shared by all memories in the process; never written. *)
let zero_chunk = Bytes.make chunk_size '\000'

type t = {
  mutable pages : Bytes.t array; (* chunk index -> backing or [unmapped] *)
  (* Optional write-set tracking: when [track_dirty] is on, every store
     sets its chunk's flag in [dirty] (one byte per page-table entry). Off
     by default so the hot simulation path pays only a branch; the
     differential oracle turns it on to confine per-boundary memory
     comparison to written pages. *)
  mutable dirty : Bytes.t;
  mutable track_dirty : bool;
}

let create () = { pages = [||]; dirty = Bytes.empty; track_dirty = false }

let copy t =
  {
    pages =
      Array.map
        (fun p -> if p == zero_chunk || p == unmapped then p else Bytes.copy p)
        t.pages;
    dirty = Bytes.copy t.dirty;
    track_dirty = t.track_dirty;
  }

let set_dirty_tracking t on = t.track_dirty <- on
let clear_dirty t = Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

(* Chunk indices [c] in ascending order for which [p c] holds. *)
let chunks_where t p =
  let acc = ref [] in
  for c = Array.length t.pages - 1 downto 0 do
    if p c then acc := c :: !acc
  done;
  !acc

let dirty_chunks t = chunks_where t (fun c -> Bytes.get t.dirty c <> '\000')
let mapped_chunks t = chunks_where t (fun c -> t.pages.(c) != unmapped)

let chunk_bytes t c =
  if c >= 0 && c < Array.length t.pages && t.pages.(c) != unmapped then
    Some t.pages.(c)
  else None

(* The page of [addr], or [unmapped]. A negative address shifts to a huge
   chunk index, above the table. *)
let page t addr =
  let c = addr lsr chunk_bits in
  let pages = t.pages in
  if c < Array.length pages then Array.unsafe_get pages c else unmapped

(* The store path: a chunk still backed by [zero_chunk] is given a private
   zeroed copy before the write lands; the chunk is dirtied. *)
let wpage t addr =
  let c = addr lsr chunk_bits in
  let pages = t.pages in
  if c >= Array.length pages then unmapped
  else begin
    let p = Array.unsafe_get pages c in
    if p == unmapped then p
    else begin
      if t.track_dirty then Bytes.unsafe_set t.dirty c '\001';
      if p != zero_chunk then p
      else begin
        let b = Bytes.make chunk_size '\000' in
        Array.unsafe_set pages c b;
        b
      end
    end
  end

(* Map every chunk overlapping [addr, addr+len). Freshly mapped chunks share
   [zero_chunk]. Mapping an already-mapped chunk is a no-op. The page table
   grows to the highest chunk mapped. *)
let map t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr chunk_bits and last = (addr + len - 1) lsr chunk_bits in
    let n = Array.length t.pages in
    if last >= n then begin
      let pages = Array.make (last + 1) unmapped in
      Array.blit t.pages 0 pages 0 n;
      let dirty = Bytes.make (last + 1) '\000' in
      Bytes.blit t.dirty 0 dirty 0 n;
      t.pages <- pages;
      t.dirty <- dirty
    end;
    for c = first to last do
      if t.pages.(c) == unmapped then t.pages.(c) <- zero_chunk
    done
  end

let is_mapped t addr = page t addr != unmapped

let chunk_of t addr =
  let p = page t addr in
  if p == unmapped then raise (Fault addr) else p

let wchunk_of t addr =
  let p = wpage t addr in
  if p == unmapped then raise (Fault addr) else p

(* Single-byte accessors; multi-byte accessors decompose at chunk borders
   (rare) and use fast Bytes primitives within a chunk. *)

let get_u8 t addr =
  Char.code (Bytes.unsafe_get (chunk_of t addr) (addr land (chunk_size - 1)))

let set_u8 t addr v =
  Bytes.unsafe_set (wchunk_of t addr) (addr land (chunk_size - 1))
    (Char.unsafe_chr (v land 0xff))

let in_chunk addr width = addr land (chunk_size - 1) <= chunk_size - width

let get_u16 t addr =
  if in_chunk addr 2 then
    Bytes.get_uint16_le (chunk_of t addr) (addr land (chunk_size - 1))
  else get_u8 t addr lor (get_u8 t (addr + 1) lsl 8)

let set_u16 t addr v =
  if in_chunk addr 2 then
    Bytes.set_uint16_le (wchunk_of t addr) (addr land (chunk_size - 1))
      (v land 0xffff)
  else begin
    set_u8 t addr v;
    set_u8 t (addr + 1) (v lsr 8)
  end

let get_u32 t addr =
  if in_chunk addr 4 then
    Int32.to_int (Bytes.get_int32_le (chunk_of t addr) (addr land (chunk_size - 1)))
    land 0xffffffff
  else get_u16 t addr lor (get_u16 t (addr + 2) lsl 16)

let set_u32 t addr v =
  if in_chunk addr 4 then
    Bytes.set_int32_le (wchunk_of t addr) (addr land (chunk_size - 1))
      (Int32.of_int (v land 0xffffffff))
  else begin
    set_u16 t addr v;
    set_u16 t (addr + 2) (v lsr 16)
  end

let get_i64 t addr =
  if in_chunk addr 8 then
    Bytes.get_int64_le (chunk_of t addr) (addr land (chunk_size - 1))
  else
    Int64.logor
      (Int64.of_int (get_u32 t addr))
      (Int64.shift_left (Int64.of_int (get_u32 t (addr + 4))) 32)

let set_i64 t addr v =
  if in_chunk addr 8 then
    Bytes.set_int64_le (wchunk_of t addr) (addr land (chunk_size - 1)) v
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
      let p = page t a in
      if p == unmapped then raise (Fault a);
      let c = a lsr chunk_bits in
      if t.track_dirty then Bytes.set t.dirty c '\001';
      if n = chunk_size then t.pages.(c) <- zero_chunk
      else if p != zero_chunk then Bytes.fill p off n '\000')

(* Bulk write used by the program loader: one blit per chunk segment. *)
let blit_string t ~addr s =
  iter_segments ~addr ~len:(String.length s) (fun a off n ->
      Bytes.blit_string s (a - addr) (wchunk_of t a) off n)

(* FNV-1a checksum over a mapped range; used by tests to compare final memory
   images between execution modes. *)
let checksum t ~addr ~len =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    let b = if is_mapped t (addr + i) then get_u8 t (addr + i) else 0 in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001b3L
  done;
  !h
