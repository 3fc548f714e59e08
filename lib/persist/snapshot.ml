(* Snapshot container: magic/version/CRC framing around a fingerprint +
   translation-cache payload. See the interface for the format contract. *)

module B = Bin_io

exception Error of string

let magic = "ILDPSNAP"

(* version 2: fingerprint gained the region tier-up knobs
   (fp_region_threshold / fp_region_max_slots).
   version 3: the cache gained per-slot static cycle annotations
   (slot_cyc_ooo / slot_cyc_ildp) for the fast-forward timing tier —
   annotation happens only at translation time, so a warm start must
   carry the costs or restored fragments would execute unpriced.
   version 4: the cache gained the ranked superop idiom table (mined
   slot-shape n-grams) and the fingerprint gained fp_superops.
   version 5: the fingerprint gained fp_tcache_max_slots — a cache
   persisted under one capacity bound must not warm-start a VM whose
   bound (and hence flush points) differs.
   version 6: the region and superop tiers were removed — the fingerprint
   lost fp_region_threshold, fp_region_max_slots and fp_superops, and the
   cache lost the idiom table.
   version 7: the static cycle estimator was removed — the cache lost the
   two per-slot cycle arrays of version 3. *)
let version = 7

type fingerprint = {
  fp_backend : string;
  fp_isa : string;
  fp_chaining : string;
  fp_engine : string;
  fp_n_accs : int;
  fp_hot_threshold : int;
  fp_max_superblock : int;
  fp_stop_at_translated : bool;
  fp_fuse_mem : bool;
  fp_tcache_max_slots : int;
  fp_image_digest : string;
}

let fingerprint_mismatches ~got ~want =
  let s name a b =
    if a = b then None else Some (Printf.sprintf "%s: snapshot %S, VM %S" name a b)
  in
  let i name a b =
    if a = b then None else Some (Printf.sprintf "%s: snapshot %d, VM %d" name a b)
  in
  let b name a b_ =
    if a = b_ then None else Some (Printf.sprintf "%s: snapshot %b, VM %b" name a b_)
  in
  List.filter_map Fun.id
    [
      s "backend" got.fp_backend want.fp_backend;
      s "isa" got.fp_isa want.fp_isa;
      s "chaining" got.fp_chaining want.fp_chaining;
      s "engine" got.fp_engine want.fp_engine;
      i "n_accs" got.fp_n_accs want.fp_n_accs;
      i "hot_threshold" got.fp_hot_threshold want.fp_hot_threshold;
      i "max_superblock" got.fp_max_superblock want.fp_max_superblock;
      b "stop_at_translated" got.fp_stop_at_translated want.fp_stop_at_translated;
      b "fuse_mem" got.fp_fuse_mem want.fp_fuse_mem;
      i "tcache_max_slots" got.fp_tcache_max_slots want.fp_tcache_max_slots;
      s "image_digest" got.fp_image_digest want.fp_image_digest;
    ]

type frag = {
  f_id : int;
  f_entry_slot : int;
  f_v_start : int;
  f_n_slots : int;
  f_v_insns : int;
  f_v_bytes : int;
  f_i_bytes : int;
  f_exec_count : int;
  f_cat_count : int array;
}

type pei = { p_slot : int; p_v_pc : int; p_acc_map : (int * int) array }

type exit_reason = X_branch of int | X_pal of int | X_dispatch_miss

type 'insn cache = {
  slots : ('insn * bool) array;
  frags : frag array;
  peis : pei array;
  exits : exit_reason array;
  slot_alpha : int array;
  slot_class : int array;
  dispatch_slot : int;
  unique_vpcs : int array;
}

type body =
  | B_acc of Accisa.Insn.t cache
  | B_straight of Alpha.Insn.t cache

type t = { fingerprint : fingerprint; body : body }

(* ---------- payload encoding ---------- *)

let put_array w put xs =
  B.u32 w (Array.length xs);
  Array.iter (put w) xs

let get_array r get =
  let n = B.read_u32 r in
  Array.init n (fun _ -> get r)

let put_fingerprint w fp =
  B.str w fp.fp_backend;
  B.str w fp.fp_isa;
  B.str w fp.fp_chaining;
  B.str w fp.fp_engine;
  B.int w fp.fp_n_accs;
  B.int w fp.fp_hot_threshold;
  B.int w fp.fp_max_superblock;
  B.bool w fp.fp_stop_at_translated;
  B.bool w fp.fp_fuse_mem;
  B.int w fp.fp_tcache_max_slots;
  B.str w fp.fp_image_digest

let get_fingerprint r =
  let fp_backend = B.read_str r in
  let fp_isa = B.read_str r in
  let fp_chaining = B.read_str r in
  let fp_engine = B.read_str r in
  let fp_n_accs = B.read_int r in
  let fp_hot_threshold = B.read_int r in
  let fp_max_superblock = B.read_int r in
  let fp_stop_at_translated = B.read_bool r in
  let fp_fuse_mem = B.read_bool r in
  let fp_tcache_max_slots = B.read_int r in
  let fp_image_digest = B.read_str r in
  { fp_backend; fp_isa; fp_chaining; fp_engine; fp_n_accs; fp_hot_threshold;
    fp_max_superblock; fp_stop_at_translated; fp_fuse_mem;
    fp_tcache_max_slots; fp_image_digest }

let fingerprint_bytes fp =
  let w = B.writer () in
  put_fingerprint w fp;
  B.contents w

let put_frag w f =
  B.int w f.f_id;
  B.int w f.f_entry_slot;
  B.int w f.f_v_start;
  B.int w f.f_n_slots;
  B.int w f.f_v_insns;
  B.int w f.f_v_bytes;
  B.int w f.f_i_bytes;
  B.int w f.f_exec_count;
  put_array w B.int f.f_cat_count

let get_frag r =
  let f_id = B.read_int r in
  let f_entry_slot = B.read_int r in
  let f_v_start = B.read_int r in
  let f_n_slots = B.read_int r in
  let f_v_insns = B.read_int r in
  let f_v_bytes = B.read_int r in
  let f_i_bytes = B.read_int r in
  let f_exec_count = B.read_int r in
  let f_cat_count = get_array r B.read_int in
  { f_id; f_entry_slot; f_v_start; f_n_slots; f_v_insns; f_v_bytes; f_i_bytes;
    f_exec_count; f_cat_count }

let put_pei w p =
  B.int w p.p_slot;
  B.int w p.p_v_pc;
  put_array w
    (fun w (a, g) ->
      B.int w a;
      B.int w g)
    p.p_acc_map

let get_pei r =
  let p_slot = B.read_int r in
  let p_v_pc = B.read_int r in
  let p_acc_map =
    get_array r (fun r ->
        let a = B.read_int r in
        let g = B.read_int r in
        (a, g))
  in
  { p_slot; p_v_pc; p_acc_map }

let put_exit w = function
  | X_branch v ->
    B.u8 w 0;
    B.int w v
  | X_pal v ->
    B.u8 w 1;
    B.int w v
  | X_dispatch_miss -> B.u8 w 2

let get_exit r =
  match B.read_u8 r with
  | 0 -> X_branch (B.read_int r)
  | 1 -> X_pal (B.read_int r)
  | 2 -> X_dispatch_miss
  | t -> B.error r "invalid exit-reason tag %d" t

let put_cache w put_insn c =
  put_array w
    (fun w (insn, strand_start) ->
      put_insn w insn;
      B.bool w strand_start)
    c.slots;
  put_array w put_frag c.frags;
  put_array w put_pei c.peis;
  put_array w put_exit c.exits;
  put_array w B.int c.slot_alpha;
  put_array w B.int c.slot_class;
  B.int w c.dispatch_slot;
  put_array w B.int c.unique_vpcs

let get_cache r get_insn =
  let slots =
    get_array r (fun r ->
        let insn = get_insn r in
        let strand_start = B.read_bool r in
        (insn, strand_start))
  in
  let frags = get_array r get_frag in
  let peis = get_array r get_pei in
  let exits = get_array r get_exit in
  let slot_alpha = get_array r B.read_int in
  let slot_class = get_array r B.read_int in
  let dispatch_slot = B.read_int r in
  let unique_vpcs = get_array r B.read_int in
  { slots; frags; peis; exits; slot_alpha; slot_class; dispatch_slot;
    unique_vpcs }

let put_body w = function
  | B_acc c ->
    B.u8 w 0;
    put_cache w Codec.put_acc_insn c
  | B_straight c ->
    B.u8 w 1;
    put_cache w Codec.put_alpha_insn c

let get_body r =
  match B.read_u8 r with
  | 0 -> B_acc (get_cache r Codec.get_acc_insn)
  | 1 -> B_straight (get_cache r Codec.get_alpha_insn)
  | t -> B.error r "invalid backend tag %d" t

(* ---------- container framing ---------- *)

let to_string t =
  let w = B.writer () in
  put_fingerprint w t.fingerprint;
  put_body w t.body;
  let payload = B.contents w in
  let out = B.writer () in
  B.raw out magic;
  B.u32 out version;
  B.u32 out (String.length payload);
  B.u32 out (B.crc32 payload);
  B.raw out payload;
  B.contents out

let of_string s =
  try
    let r = B.reader s in
    let m = B.read_bytes r (String.length magic) in
    if m <> magic then
      raise (Error (Printf.sprintf "bad magic %S (not a snapshot file)" m));
    let v = B.read_u32 r in
    if v <> version then
      raise
        (Error
           (Printf.sprintf "unsupported snapshot version %d (this build reads %d)"
              v version));
    let len = B.read_u32 r in
    let crc = B.read_u32 r in
    let payload = B.read_bytes r len in
    if not (B.eof r) then
      raise
        (Error
           (Printf.sprintf "trailing garbage: %d bytes after the payload"
              (String.length s - B.pos r)));
    let actual = B.crc32 payload in
    if actual <> crc then
      raise
        (Error
           (Printf.sprintf "CRC mismatch (stored %#x, computed %#x): corrupted snapshot"
              crc actual));
    let r = B.reader payload in
    let fingerprint = get_fingerprint r in
    let body = get_body r in
    if not (B.eof r) then
      raise
        (Error
           (Printf.sprintf "payload has %d undecoded trailing bytes"
              (String.length payload - B.pos r)));
    { fingerprint; body }
  with B.Error msg -> raise (Error ("malformed snapshot: " ^ msg))

let write_file path t =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> raise (Error msg)
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
