(* Unit and property tests for the machine substrate: memory, caches,
   predictors, and the dual-address RAS. *)

open Machine

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- memory ---------- *)

let test_mem_rw () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:0x1000;
  Memory.set_u8 m 0x1000 0xab;
  check Alcotest.int "u8" 0xab (Memory.get_u8 m 0x1000);
  Memory.set_u16 m 0x1010 0xbeef;
  check Alcotest.int "u16" 0xbeef (Memory.get_u16 m 0x1010);
  Memory.set_u32 m 0x1020 0xdeadbeef;
  check Alcotest.int "u32" 0xdeadbeef (Memory.get_u32 m 0x1020);
  Memory.set_i64 m 0x1040 0x1122334455667788L;
  check Alcotest.int64 "i64" 0x1122334455667788L (Memory.get_i64 m 0x1040)

let test_mem_endianness () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:64;
  Memory.set_i64 m 0 0x0807060504030201L;
  for i = 0 to 7 do
    check Alcotest.int (Printf.sprintf "byte %d" i) (i + 1) (Memory.get_u8 m i)
  done;
  check Alcotest.int "u16 at 2" 0x0403 (Memory.get_u16 m 2);
  check Alcotest.int "u32 at 4" 0x08070605 (Memory.get_u32 m 4)

let test_mem_fault () =
  let m = Memory.create () in
  Memory.map m ~addr:0x10000 ~len:0x100;
  check Alcotest.bool "mapped" true (Memory.is_mapped m 0x10000);
  check Alcotest.bool "unmapped" false (Memory.is_mapped m 0x90000);
  Alcotest.check_raises "fault" (Memory.Fault 0x90000) (fun () ->
      ignore (Memory.get_u8 m 0x90000))

let test_mem_cross_chunk () =
  let m = Memory.create () in
  (* chunk size is 64 KiB; write an i64 straddling the boundary *)
  Memory.map m ~addr:0 ~len:(2 * 65536);
  let addr = 65536 - 3 in
  Memory.set_i64 m addr 0x1020304050607080L;
  check Alcotest.int64 "straddle" 0x1020304050607080L (Memory.get_i64 m addr);
  let addr2 = 65536 - 1 in
  Memory.set_u16 m addr2 0xcafe;
  check Alcotest.int "straddle u16" 0xcafe (Memory.get_u16 m addr2)

let test_mem_dirty_tracking () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:(4 * 65536);
  Memory.set_u8 m 0x10 1;
  check Alcotest.(list int) "off by default: nothing recorded" []
    (Memory.dirty_chunks m);
  Memory.set_dirty_tracking m true;
  Memory.set_u8 m 0x20 2;
  Memory.set_i64 m (3 * 65536) 9L;
  (* a straddling store dirties both chunks via its decomposed halves *)
  Memory.set_i64 m (2 * 65536 - 4) 0x1122334455667788L;
  check Alcotest.(list int) "written chunks, sorted" [ 0; 1; 2; 3 ]
    (Memory.dirty_chunks m);
  check Alcotest.bool "chunk bytes reachable" true
    (Memory.chunk_bytes m 0 <> None);
  Memory.clear_dirty m;
  check Alcotest.(list int) "cleared" [] (Memory.dirty_chunks m);
  (* reads never dirty *)
  ignore (Memory.get_i64 m 0x10);
  check Alcotest.(list int) "reads don't dirty" [] (Memory.dirty_chunks m)

(* Freshly mapped chunks share one zero chunk until their first store; each
   case below fails if that chunk is ever written or shared wrongly. *)

let test_mem_cow_independent_maps () =
  let a = Memory.create () and b = Memory.create () in
  Memory.map a ~addr:0 ~len:(2 * 65536);
  Memory.map b ~addr:0 ~len:(2 * 65536);
  Memory.set_i64 a 0x18 0x55L;
  Memory.set_u8 a 65536 0x77;
  check Alcotest.int64 "writer sees its store" 0x55L (Memory.get_i64 a 0x18);
  check Alcotest.int64 "other memory still reads 0" 0L (Memory.get_i64 b 0x18);
  check Alcotest.int "second chunk too" 0 (Memory.get_u8 b 65536);
  let fresh = Memory.create () in
  Memory.map fresh ~addr:0 ~len:65536;
  check Alcotest.int64 "later maps read 0" 0L (Memory.get_i64 fresh 0x18)

let test_mem_cow_copy () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:(3 * 65536);
  Memory.set_u32 m 4 0xabcd;
  let c = Memory.copy m in
  check Alcotest.int "copy keeps written bytes" 0xabcd (Memory.get_u32 c 4);
  (* first stores to never-written chunks, one on each side *)
  Memory.set_u16 m 65536 0x1234;
  Memory.set_u16 c (2 * 65536) 0x4321;
  check Alcotest.int "copy misses original's store" 0 (Memory.get_u16 c 65536);
  check Alcotest.int "original misses copy's store" 0
    (Memory.get_u16 m (2 * 65536));
  (* a store to a chunk written before the copy stays private as well *)
  Memory.set_u8 c 4 0xff;
  check Alcotest.int "already-written chunk was duplicated" 0xabcd
    (Memory.get_u32 m 4)

let test_mem_fill_zero_unaligned () =
  let m = Memory.create () in
  (* the dispatch-table shape: four whole chunks plus 32 bytes, starting on
     a chunk border, with live data after the tail *)
  let base = 0x100000 and len = (4 * 65536) + 32 in
  Memory.map m ~addr:base ~len:(5 * 65536);
  for i = 0 to (len / 8) + 1 do
    Memory.set_i64 m (base + (8 * i)) (Int64.of_int (i + 1))
  done;
  Memory.set_dirty_tracking m true;
  Memory.fill_zero m ~addr:base ~len;
  let nonzero = ref 0 in
  for i = 0 to (len / 8) - 1 do
    if Memory.get_i64 m (base + (8 * i)) <> 0L then incr nonzero
  done;
  check Alcotest.int "range reads back 0" 0 !nonzero;
  check Alcotest.int64 "byte after the range kept" (Int64.of_int ((len / 8) + 1))
    (Memory.get_i64 m (base + len));
  check Alcotest.(list int) "every touched chunk dirtied"
    (List.init 5 (fun i -> (base lsr Memory.chunk_bits) + i))
    (Memory.dirty_chunks m);
  Memory.set_i64 m (base + 65536 + 8) 42L;
  Memory.set_u8 m (base + (4 * 65536) + 1) 7;
  check Alcotest.int64 "store into a reset chunk" 42L
    (Memory.get_i64 m (base + 65536 + 8));
  check Alcotest.int "store into the partial tail" 7
    (Memory.get_u8 m (base + (4 * 65536) + 1));
  let fresh = Memory.create () in
  Memory.map fresh ~addr:base ~len:65536;
  check Alcotest.int64 "zero chunk untouched" 0L
    (Memory.get_i64 fresh (base + 8));
  (* a range confined to a never-written chunk stays zero *)
  Memory.fill_zero fresh ~addr:(base + 3) ~len:100;
  check Alcotest.int64 "partial fill of a zero chunk" 0L
    (Memory.get_i64 fresh base)

let test_mem_cow_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:65536;
  let bad = 3 * 65536 in
  Alcotest.check_raises "unmapped read" (Memory.Fault bad) (fun () ->
      ignore (Memory.get_i64 m bad));
  Alcotest.check_raises "unmapped write" (Memory.Fault bad) (fun () ->
      Memory.set_i64 m bad 1L);
  Alcotest.check_raises "unmapped u8 write" (Memory.Fault bad) (fun () ->
      Memory.set_u8 m bad 1);
  Alcotest.check_raises "unmapped fill" (Memory.Fault bad) (fun () ->
      Memory.fill_zero m ~addr:bad ~len:8);
  Alcotest.check_raises "blit past the mapping" (Memory.Fault 65536)
    (fun () -> Memory.blit_string m ~addr:(65536 - 2) "abcd");
  check Alcotest.bool "faulting store maps nothing" false
    (Memory.is_mapped m bad);
  check Alcotest.int "blit wrote up to the fault" (Char.code 'b')
    (Memory.get_u8 m (65536 - 1))

let test_mem_blit_straddle () =
  let m = Memory.create () and r = Memory.create () in
  Memory.map m ~addr:0 ~len:(3 * 65536);
  Memory.map r ~addr:0 ~len:(3 * 65536);
  Memory.set_dirty_tracking m true;
  Memory.set_dirty_tracking r true;
  let s = String.init 70000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let addr = 65536 - 1000 in
  Memory.blit_string m ~addr s;
  String.iteri (fun i c -> Memory.set_u8 r (addr + i) (Char.code c)) s;
  check Alcotest.(list int) "dirty marks equal a per-byte loop"
    (Memory.dirty_chunks r) (Memory.dirty_chunks m);
  check Alcotest.int64 "same bytes as a per-byte loop"
    (Memory.checksum r ~addr:0 ~len:(3 * 65536))
    (Memory.checksum m ~addr:0 ~len:(3 * 65536));
  Memory.blit_string m ~addr:5 "";
  check Alcotest.int "empty blit writes nothing" 0 (Memory.get_u8 m 5)

(* The page table is sized by the highest mapped chunk. An address above
   it, one in a hole below it, and the top of the engine's address mask
   all fault on every width, and the engine's page accessors return the
   unmapped page there. *)
let test_mem_page_table_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:65536;
  Memory.map m ~addr:(4 * 65536) ~len:65536;
  Memory.set_dirty_tracking m true;
  let cases =
    [ ("above the table", 5 * 65536); ("in a hole", (2 * 65536) + 8);
      ("top of addr_mask", 0x3fffffffffff land lnot 7); ("negative", -8) ]
  in
  List.iter
    (fun (what, a) ->
      let raises kind f =
        Alcotest.check_raises (what ^ ": " ^ kind) (Memory.Fault a) f
      in
      raises "u8 read" (fun () -> ignore (Memory.get_u8 m a));
      raises "u16 read" (fun () -> ignore (Memory.get_u16 m a));
      raises "u32 read" (fun () -> ignore (Memory.get_u32 m a));
      raises "i64 read" (fun () -> ignore (Memory.get_i64 m a));
      raises "u8 write" (fun () -> Memory.set_u8 m a 1);
      raises "i64 write" (fun () -> Memory.set_i64 m a 1L);
      check Alcotest.bool (what ^ ": not mapped") false (Memory.is_mapped m a);
      check Alcotest.bool (what ^ ": page") true
        (Memory.page m a == Memory.unmapped);
      check Alcotest.bool (what ^ ": wpage") true
        (Memory.wpage m a == Memory.unmapped))
    cases;
  check Alcotest.(list int) "mapped chunks" [ 0; 4 ] (Memory.mapped_chunks m);
  check Alcotest.(list int) "faulting stores dirty nothing" []
    (Memory.dirty_chunks m);
  Memory.set_i64 m ((5 * 65536) - 8) 3L;
  check Alcotest.int64 "last byte of the table's last chunk" 3L
    (Memory.get_i64 m ((5 * 65536) - 8))

(* One page slot through its life: private on its first store, back to the
   shared zero chunk on a whole-chunk fill, reading zero there, and on the
   next store private again, with a fresh page rather than the zero
   chunk. *)
let test_mem_page_slot_lifecycle () =
  let m = Memory.create () in
  let base = 3 * 65536 in
  Memory.map m ~addr:base ~len:65536;
  let zero = Memory.page m base in
  Memory.set_i64 m (base + 16) 7L;
  let first = Memory.page m base in
  check Alcotest.bool "first store makes the page private" true (first != zero);
  Memory.fill_zero m ~addr:base ~len:65536;
  check Alcotest.bool "whole-chunk fill shares the zero chunk again" true
    (Memory.page m base == zero);
  check Alcotest.int64 "reads zero through the same slot" 0L
    (Memory.get_i64 m (base + 16));
  Memory.set_u8 m (base + 3) 9;
  let second = Memory.page m base in
  check Alcotest.bool "a later store gets a fresh private page" true
    (second != zero && second != first);
  check Alcotest.int "the store landed" 9 (Memory.get_u8 m (base + 3));
  check Alcotest.int64 "the filled value stays gone" 0L
    (Memory.get_i64 m (base + 16));
  let fresh = Memory.create () in
  Memory.map fresh ~addr:base ~len:65536;
  check Alcotest.int64 "the zero chunk was never written" 0L
    (Memory.get_i64 fresh (base + 16))

(* A copy owns its page table: mappings, fills and stores on either side
   after the copy stay on that side, table growth included. *)
let test_mem_copy_page_table () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:65536;
  Memory.set_u8 m 1 1;
  let c = Memory.copy m in
  Memory.map m ~addr:(8 * 65536) ~len:65536;
  Memory.set_u8 m (8 * 65536) 2;
  check Alcotest.bool "the copy misses the original's new mapping" false
    (Memory.is_mapped c (8 * 65536));
  Memory.fill_zero c ~addr:0 ~len:65536;
  check Alcotest.int "the original keeps its bytes" 1 (Memory.get_u8 m 1);
  check Alcotest.int "the copy was zeroed" 0 (Memory.get_u8 c 1);
  check Alcotest.(list int) "copy's chunks" [ 0 ] (Memory.mapped_chunks c);
  check Alcotest.(list int) "original's chunks" [ 0; 8 ]
    (Memory.mapped_chunks m)

(* Dirty flags after stores, blits and fills, kept across page-table growth
   and copied with the memory. *)
let test_mem_dirty_lists () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:(2 * 65536);
  Memory.set_dirty_tracking m true;
  Memory.set_u32 m (65536 + 4) 5;
  Memory.map m ~addr:(6 * 65536) ~len:(2 * 65536);
  Memory.blit_string m ~addr:((7 * 65536) - 3) "abcdef";
  Memory.fill_zero m ~addr:8 ~len:16;
  check Alcotest.(list int) "stores, blits and fills" [ 0; 1; 6; 7 ]
    (Memory.dirty_chunks m);
  let c = Memory.copy m in
  Memory.clear_dirty m;
  check Alcotest.(list int) "cleared" [] (Memory.dirty_chunks m);
  check Alcotest.(list int) "the copy keeps its flags" [ 0; 1; 6; 7 ]
    (Memory.dirty_chunks c);
  ignore (Memory.wpage m (6 * 65536) : Bytes.t);
  check Alcotest.(list int) "the store path dirties its page" [ 6 ]
    (Memory.dirty_chunks m)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"memory i64 roundtrip" ~count:500
    QCheck.(pair (int_bound 0xfff0) int64)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0 ~len:0x10000;
      let addr = off land lnot 7 in
      Memory.set_i64 m addr v;
      Int64.equal (Memory.get_i64 m addr) v)

(* ---------- cache ---------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~ways:2 ~policy:Cache.Lru in
  check Alcotest.bool "cold miss" false (Cache.access c 0);
  check Alcotest.bool "hit" true (Cache.access c 0);
  check Alcotest.bool "same line" true (Cache.access c 63);
  check Alcotest.bool "next line miss" false (Cache.access c 64)

let test_cache_lru_eviction () =
  (* 2-way, 8 sets of 64B lines: three lines mapping to set 0 *)
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~ways:2 ~policy:Cache.Lru in
  let set_stride = 8 * 64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c 0);
  (* now LRU way holds [set_stride]; this evicts it *)
  ignore (Cache.access c (2 * set_stride));
  check Alcotest.bool "0 survives" true (Cache.probe c 0);
  check Alcotest.bool "stride evicted" false (Cache.probe c set_stride)

let test_cache_capacity () =
  let c = Cache.create ~name:"t" ~size:4096 ~line:64 ~ways:4 ~policy:Cache.Lru in
  (* touch exactly the capacity: everything should then hit *)
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  let hits = ref 0 in
  for i = 0 to 63 do
    if Cache.access c (i * 64) then incr hits
  done;
  check Alcotest.int "all hit at capacity" 64 !hits

let prop_cache_miss_bounded =
  QCheck.Test.make ~name:"cache misses <= accesses" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 0xffff))
    (fun addrs ->
      let c =
        Cache.create ~name:"t" ~size:2048 ~line:32 ~ways:2 ~policy:Cache.Random
      in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      c.Cache.misses <= c.Cache.accesses && c.Cache.misses > 0)

(* ---------- memory hierarchy ---------- *)

let test_memhier_latencies () =
  let h = Memhier.create Memhier.default_cfg in
  let cold = Memhier.load h ~pe:0 0x4000 in
  check Alcotest.int "cold load = L1+L2+mem" (2 + 8 + 72) cold;
  let warm = Memhier.load h ~pe:0 0x4000 in
  check Alcotest.int "warm load = L1" 2 warm

let test_memhier_replication () =
  let h = Memhier.create ~replicas:4 Memhier.default_cfg in
  ignore (Memhier.store h 0x8000);
  (* the store installed the line in every replica *)
  for pe = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "replica %d hits" pe)
      2
      (Memhier.load h ~pe 0x8000)
  done

(* ---------- gshare ---------- *)

let test_gshare_learns_loop () =
  let g = Gshare.create () in
  (* strongly-taken loop branch: after warmup it should always predict taken *)
  let correct = ref 0 in
  for i = 1 to 100 do
    if Gshare.predict_update g 0x1000 ~taken:true then
      if i > 10 then incr correct
  done;
  check Alcotest.int "loop branch learned" 90 !correct

let test_gshare_alternating_with_history () =
  let g = Gshare.create () in
  (* strict alternation is captured by global history *)
  let correct = ref 0 in
  for i = 0 to 199 do
    let taken = i land 1 = 0 in
    if Gshare.predict_update g 0x2000 ~taken then if i >= 100 then incr correct
  done;
  check Alcotest.bool "alternation learned" true (!correct >= 95)

(* ---------- btb ---------- *)

let test_btb_basic () =
  let b = Btb.create () in
  check Alcotest.(option int) "cold" None (Btb.lookup b 0x1000);
  Btb.update b 0x1000 ~target:0x2000;
  check Alcotest.(option int) "after update" (Some 0x2000) (Btb.lookup b 0x1000);
  Btb.update b 0x1000 ~target:0x3000;
  check Alcotest.(option int) "retarget" (Some 0x3000) (Btb.lookup b 0x1000)

let test_btb_conflict_eviction () =
  let b = Btb.create ~entries:8 ~ways:2 () in
  (* 4 sets; pcs mapping to the same set differ by 4*4=16 bytes *)
  let stride = 4 * 4 in
  Btb.update b 0x1000 ~target:1;
  Btb.update b (0x1000 + stride) ~target:2;
  Btb.update b (0x1000 + (2 * stride)) ~target:3;
  check Alcotest.(option int) "LRU victim gone" None (Btb.lookup b 0x1000);
  check Alcotest.(option int) "newest present" (Some 3)
    (Btb.lookup b (0x1000 + (2 * stride)))

(* ---------- ras ---------- *)

let test_ras_lifo () =
  let r = Ras.create () in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3;
  check Alcotest.(option int) "pop 3" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "pop 2" (Some 2) (Ras.pop r);
  check Alcotest.(option int) "pop 1" (Some 1) (Ras.pop r);
  check Alcotest.(option int) "empty" None (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~entries:4 () in
  for i = 1 to 6 do
    Ras.push r i
  done;
  (* deepest surviving entries are 3..6 *)
  check Alcotest.(option int) "pop 6" (Some 6) (Ras.pop r);
  check Alcotest.(option int) "pop 5" (Some 5) (Ras.pop r);
  check Alcotest.(option int) "pop 4" (Some 4) (Ras.pop r);
  check Alcotest.(option int) "pop 3" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "empty after wrap" None (Ras.pop r)

(* ---------- dual-address RAS ---------- *)

let test_dras_match () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:0x1000 ~i_addr:(Some 77);
  check Alcotest.(option int) "verified pop" (Some 77)
    (Dual_ras.pop_verify d ~v_actual:0x1000)

let test_dras_mismatch () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:0x1000 ~i_addr:(Some 77);
  check Alcotest.(option int) "stale pair rejected" None
    (Dual_ras.pop_verify d ~v_actual:0x2000);
  check Alcotest.(option int) "empty stack rejected" None
    (Dual_ras.pop_verify d ~v_actual:0x1000)

let test_dras_nested_calls () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:10 ~i_addr:(Some 100);
  Dual_ras.push d ~v_addr:20 ~i_addr:(Some 200);
  check Alcotest.(option int) "inner" (Some 200) (Dual_ras.pop_verify d ~v_actual:20);
  check Alcotest.(option int) "outer" (Some 100) (Dual_ras.pop_verify d ~v_actual:10);
  check (Alcotest.float 0.01) "hit rate" 1.0 (Dual_ras.hit_rate d)

(* A call whose return point is untranslated pushes no I-address. The pop
   must verify the nesting (consume the slot) but report a miss — the old
   [-1] integer sentinel could leak out as a "live" target here. *)
let test_dras_untranslated_return () =
  let d = Dual_ras.create () in
  Dual_ras.push d ~v_addr:10 ~i_addr:(Some 100);
  Dual_ras.push d ~v_addr:20 ~i_addr:None;
  check Alcotest.(option int) "no-target pair is a miss" None
    (Dual_ras.pop_verify d ~v_actual:20);
  check Alcotest.(option int) "nesting stays aligned" (Some 100)
    (Dual_ras.pop_verify d ~v_actual:10);
  check Alcotest.int "only the live pop counts as a hit" 1 d.hits;
  check Alcotest.int "both pops counted" 2 d.pops

let prop_dras_balanced =
  QCheck.Test.make ~name:"dual-RAS: balanced call/return always verifies"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (pair small_nat small_nat))
    (fun pairs ->
      let d = Dual_ras.create () in
      List.iter (fun (v, i) -> Dual_ras.push d ~v_addr:v ~i_addr:(Some i)) pairs;
      List.for_all
        (fun (v, i) -> Dual_ras.pop_verify d ~v_actual:v = Some i)
        (List.rev pairs))

(* ---------- rng determinism ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let suite =
  [
    ("memory read/write widths", `Quick, test_mem_rw);
    ("memory little-endian layout", `Quick, test_mem_endianness);
    ("memory fault on unmapped", `Quick, test_mem_fault);
    ("memory cross-chunk access", `Quick, test_mem_cross_chunk);
    ("memory dirty-chunk tracking", `Quick, test_mem_dirty_tracking);
    ("memory zero chunk not shared by stores", `Quick, test_mem_cow_independent_maps);
    ("memory copy isolates first stores", `Quick, test_mem_cow_copy);
    ("memory fill_zero unaligned range", `Quick, test_mem_fill_zero_unaligned);
    ("memory unmapped faults under copy-on-write", `Quick, test_mem_cow_faults);
    ("memory blit straddles chunks", `Quick, test_mem_blit_straddle);
    ("memory page table faults", `Quick, test_mem_page_table_faults);
    ("memory page slot lifecycle", `Quick, test_mem_page_slot_lifecycle);
    ("memory copy owns its page table", `Quick, test_mem_copy_page_table);
    ("memory dirty lists", `Quick, test_mem_dirty_lists);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache full capacity hits", `Quick, test_cache_capacity);
    ("memhier latency levels", `Quick, test_memhier_latencies);
    ("memhier store broadcast to replicas", `Quick, test_memhier_replication);
    ("gshare learns biased branch", `Quick, test_gshare_learns_loop);
    ("gshare learns alternation", `Quick, test_gshare_alternating_with_history);
    ("btb install/lookup/retarget", `Quick, test_btb_basic);
    ("btb conflict eviction", `Quick, test_btb_conflict_eviction);
    ("ras lifo order", `Quick, test_ras_lifo);
    ("ras circular overflow", `Quick, test_ras_overflow_wraps);
    ("dual-ras verified return", `Quick, test_dras_match);
    ("dual-ras mismatch falls through", `Quick, test_dras_mismatch);
    ("dual-ras nested calls", `Quick, test_dras_nested_calls);
    ("dual-ras untranslated return point", `Quick, test_dras_untranslated_return);
    ("rng determinism", `Quick, test_rng_deterministic);
    qtest prop_mem_roundtrip;
    qtest prop_cache_miss_bounded;
    qtest prop_dras_balanced;
  ]
