(* Tests for the DBT core: superblock formation, usage analysis, translation
   invariants, and the central correctness property — every program computes
   the same architected results under the VM (both I-ISAs, every chaining
   mode) as under the plain interpreter. *)

open Core

let check = Alcotest.check

(* ---------- helpers ---------- *)

let all_modes =
  [
    (Config.Basic, Config.No_pred);
    (Config.Basic, Config.Sw_pred_no_ras);
    (Config.Basic, Config.Sw_pred_ras);
    (Config.Modified, Config.No_pred);
    (Config.Modified, Config.Sw_pred_no_ras);
    (Config.Modified, Config.Sw_pred_ras);
  ]

let mode_name (isa, ch) =
  Printf.sprintf "%s/%s" (Config.isa_name isa) (Config.chaining_name ch)

type run_result = {
  outcome : string;
  output : string;
  regs : int64;
}

let run_interp prog =
  let st = Alpha.Interp.create prog in
  let outcome =
    match Alpha.Interp.run ~fuel:10_000_000 st with
    | Alpha.Interp.Exit c -> Printf.sprintf "exit %d" c
    | Fault tr -> Format.asprintf "fault %a" Alpha.Interp.pp_trap tr
    | Out_of_fuel -> "fuel"
  in
  { outcome; output = Alpha.Interp.output st; regs = Alpha.Interp.reg_checksum st }

let run_vm ?(kind = Vm.Acc) ~isa ~chaining prog =
  let cfg = { Config.default with isa; chaining } in
  let vm = Vm.create ~cfg ~kind prog in
  let outcome =
    match Vm.run ~fuel:10_000_000 vm with
    | Vm.Exit c -> Printf.sprintf "exit %d" c
    | Fault tr -> Format.asprintf "fault %a" Alpha.Interp.pp_trap tr
    | Out_of_fuel -> "fuel"
  in
  ({ outcome; output = Vm.output vm; regs = Vm.reg_checksum vm }, vm)

(* Assert interpreter/VM equivalence for one program across all modes. *)
let assert_equivalent ?(also_straight = true) name src =
  let prog = Alpha.Assembler.assemble src in
  let reference = run_interp prog in
  List.iter
    (fun (isa, chaining) ->
      let got, vm = run_vm ~isa ~chaining prog in
      let label = name ^ " " ^ mode_name (isa, chaining) in
      check Alcotest.string (label ^ " outcome") reference.outcome got.outcome;
      check Alcotest.string (label ^ " output") reference.output got.output;
      check Alcotest.int64 (label ^ " regs") reference.regs got.regs;
      (* the program must actually exercise translated code *)
      if (Vm.engine_stats vm).alpha_retired = 0 then
        Alcotest.failf "%s: no instructions retired in translated mode" label)
    all_modes;
  if also_straight then
    List.iter
      (fun chaining ->
        let got, vm =
          run_vm ~kind:Vm.Straight_only ~isa:Config.Modified ~chaining prog
        in
        let label = name ^ " straight/" ^ Config.chaining_name chaining in
        check Alcotest.string (label ^ " outcome") reference.outcome got.outcome;
        check Alcotest.string (label ^ " output") reference.output got.output;
        check Alcotest.int64 (label ^ " regs") reference.regs got.regs;
        if (Vm.engine_stats vm).alpha_retired = 0 then
          Alcotest.failf "%s: no instructions retired in translated mode" label)
      [ Config.No_pred; Config.Sw_pred_no_ras; Config.Sw_pred_ras ]

(* ---------- test programs (loops iterate past the hot threshold) ---------- *)

let prog_counted_loop =
  {|
  .text
_start:
  clr   t0
  ldiq  t1, 500
loop:
  addq  t0, t1, t0
  subq  t1, 1, t1
  bne   t1, loop
  mov   t0, a0
  call_pal 2
  clr   v0
  call_pal 0
  |}

(* the paper's Fig. 2 inner loop (gzip hash loop) over a byte table *)
let prog_gzip_fig2 =
  {|
  .text
_start:
  la    a0, buf          ; r16: pointer
  ldiq  a1, 300          ; r17: count
  clr   v0               ; r0: table base substitute
  clr   t0               ; r1: rolling hash
L1:
  ldbu  t2, 0(a0)        ; r3 <- mem[r16]
  subq  a1, 1, a1
  lda   a0, 1(a0)
  xor   t0, t2, t2
  srl   t0, 8, t0
  and   t2, 0xff, t2
  s8addq t2, v0, t2
  addq  t2, t0, t0       ; fold (stand-in for the dependent load)
  bne   a1, L1
  mov   t0, a0
  call_pal 2
  clr   v0
  call_pal 0
  .data
buf:
  .space 512
  |}

let prog_nested_calls =
  {|
  .text
_start:
  ldiq  s0, 80
  clr   s1
outer:
  mov   s0, a0
  bsr   ra, work
  addq  s1, v0, s1
  subq  s0, 1, s0
  bne   s0, outer
  mov   s1, a0
  call_pal 2
  clr   v0
  call_pal 0
work:
  lda   sp, -16(sp)
  stq   ra, 0(sp)
  addq  a0, a0, a0
  bsr   ra, leaf
  ldq   ra, 0(sp)
  lda   sp, 16(sp)
  ret
leaf:
  addq  a0, 3, v0
  ret
  |}

let prog_jump_table =
  {|
  .text
_start:
  clr   s0               ; i
  clr   s1               ; acc
  ldiq  s2, 240
loop:
  and   s0, 3, t0
  la    t1, jtab
  s8addq t0, t1, t1
  ldq   t2, 0(t1)
  jmp   (t2)
case0:
  addq  s1, 1, s1
  br    next
case1:
  addq  s1, 10, s1
  br    next
case2:
  subq  s1, 2, s1
  br    next
case3:
  sll   s1, 1, s1
  and   s1, 0xff, s1
next:
  addq  s0, 1, s0
  cmplt s0, s2, t3
  bne   t3, loop
  mov   s1, a0
  call_pal 2
  clr   v0
  call_pal 0
  .data
  .align 8
jtab:
  .quad case0, case1, case2, case3
  |}

let prog_memory_churn =
  {|
  .text
_start:
  la    s0, arr
  ldiq  s1, 128
  clr   t0
init:
  mulq  t0, 17, t1
  addq  t1, 5, t1
  s8addq t0, s0, t2
  stq   t1, 0(t2)
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, init
  clr   t0
  clr   s2
sum:
  s8addq t0, s0, t2
  ldq   t1, 0(t2)
  addq  s2, t1, s2
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, sum
  mov   s2, a0
  call_pal 2
  clr   v0
  call_pal 0
  .data
  .align 8
arr:
  .space 1024
  |}

let prog_cmov =
  {|
  .text
_start:
  clr   t0
  clr   s0              ; max
  ldiq  t1, 200
  ldiq  s3, 2654435761
loop:
  mulq  t1, s3, t2
  srl   t2, 13, t2
  and   t2, 0xff, t2
  cmplt s0, t2, t3
  cmovne t3, t2, s0     ; s0 = max(s0, t2)
  subq  t1, 1, t1
  bne   t1, loop
  mov   s0, a0
  call_pal 2
  clr   v0
  call_pal 0
  |}

let prog_byte_stores =
  {|
  .text
_start:
  la    s0, buf
  ldiq  s1, 200
  clr   t0
fill:
  and   t0, 0xff, t1
  addq  s0, t0, t2
  stb   t1, 0(t2)
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, fill
  clr   t0
  clr   s2
rd:
  addq  s0, t0, t2
  ldbu  t1, 0(t2)
  xor   s2, t1, s2
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, rd
  mov   s2, a0
  call_pal 2
  clr   v0
  call_pal 0
  .data
buf:
  .space 256
  |}

(* deep strand pressure: long dependence chains plus many live values *)
let prog_acc_pressure =
  {|
  .text
_start:
  ldiq  t0, 1
  ldiq  t1, 2
  ldiq  t2, 3
  ldiq  t3, 4
  ldiq  t4, 5
  ldiq  t5, 6
  ldiq  s0, 100
loop:
  addq  t0, t1, t0
  addq  t1, t2, t1
  addq  t2, t3, t2
  addq  t3, t4, t3
  addq  t4, t5, t4
  addq  t5, t0, t5
  mulq  t0, 3, t6
  xor   t6, t4, t6
  addq  t6, t2, t6
  subq  s0, 1, s0
  bne   s0, loop
  addq  t0, t5, a0
  call_pal 2
  clr   v0
  call_pal 0
  |}

let equivalence_cases =
  [
    ("counted loop", prog_counted_loop);
    ("fig2 gzip loop", prog_gzip_fig2);
    ("nested calls", prog_nested_calls);
    ("jump table", prog_jump_table);
    ("memory churn", prog_memory_churn);
    ("cmov max", prog_cmov);
    ("byte stores", prog_byte_stores);
    ("accumulator pressure", prog_acc_pressure);
  ]

(* ---------- superblock formation ---------- *)

let form_first_hot src =
  (* run the VM until the first fragment exists; return its superblock-ish
     info via the fragments list *)
  let prog = Alpha.Assembler.assemble src in
  let vm = Vm.create ~kind:Vm.Acc prog in
  ignore (Vm.run ~fuel:1_000_000 vm);
  let ctx = Option.get (Vm.acc_ctx vm) in
  (Tcache.Acc.fragments ctx.tc, ctx, vm)

let test_superblock_formed () =
  let frags, _, _ = form_first_hot prog_counted_loop in
  check Alcotest.bool "at least one fragment" true (List.length frags >= 1);
  let f = List.hd frags in
  (* the loop body is 3 instructions *)
  check Alcotest.int "loop fragment covers 3 V-insns" 3 f.Tcache.v_insns

let test_superblock_execution_counts () =
  let frags, _, _ = form_first_hot prog_counted_loop in
  let f = List.hd frags in
  (* 500 iterations, minus 49 interpreted before hot, minus 1 consumed by
     formation: the fragment runs the rest *)
  check Alcotest.bool "fragment executed many times" true (f.Tcache.exec_count > 400)

let test_formation_ends_at_indirect_jump () =
  let frags, _, _ = form_first_hot prog_nested_calls in
  (* a fragment formed from `work` must stop at the bsr-inlined leaf's ret *)
  List.iter
    (fun (f : Tcache.frag) ->
      check Alcotest.bool "fragment nonempty" true (f.Tcache.v_insns > 0))
    frags

(* ---------- usage classification ---------- *)

let mk_superblock src =
  (* interpret until hot formation by hand: just form from entry *)
  let prog = Alpha.Assembler.assemble src in
  let interp = Alpha.Interp.create prog in
  Superblock.form ~interp ~max_size:200 ~is_translated:(fun _ -> false) ()

let test_usage_categories () =
  let sb, _ =
    mk_superblock
      {|
      .text
  _start:
      ldiq  t0, 7      ; local: one use, redefined below before any branch
      addq  t0, 1, t1  ; t1: liveout (never redefined in the block)
      clr   t0         ; dead across the branch -> no user -> global
      beq   t1, skip
  skip:
      ldiq  t2, 10
      addq  t2, t2, t3
      clr   t0         ; final redefinition of t0
      call_pal 0
      |}
  in
  let nodes = Node.decompose sb in
  let u = Usage.analyze nodes in
  let cat_of_node i =
    match u.defs.(i) with Some d -> Some d.category | None -> None
  in
  check Alcotest.bool "t0 local" true (cat_of_node 0 = Some Usage.Local);
  check Alcotest.bool "t1 liveout" true (cat_of_node 1 = Some Usage.Liveout_global);
  check Alcotest.bool "t0 redef no-user-global" true
    (cat_of_node 2 = Some Usage.No_user_global)

let test_usage_comm_global () =
  let sb, _ =
    mk_superblock
      {|
      .text
  _start:
      ldiq  t0, 3
      addq  t0, 1, t1
      addq  t0, 2, t2
      addq  t0, 3, t0
      call_pal 0
      |}
  in
  let nodes = Node.decompose sb in
  let u = Usage.analyze nodes in
  (match u.defs.(0) with
  | Some d ->
    check Alcotest.bool "t0 communication" true (d.category = Usage.Comm_global);
    check Alcotest.int "three users" 3 (List.length d.users)
  | None -> Alcotest.fail "no def")

let test_usage_temp () =
  let sb, _ =
    mk_superblock
      {|
      .text
  _start:
      la   t0, d
      ldq  t1, 8(t0)    ; decomposes into addr-calc temp + load
      call_pal 0
      .data
      .align 8
  d:  .quad 1, 2
      |}
  in
  let nodes = Node.decompose sb in
  let u = Usage.analyze nodes in
  let temps =
    Array.to_list u.defs
    |> List.filter_map (fun d ->
           Option.bind d (fun (d : Usage.def_info) ->
               if d.category = Usage.Temp then Some d else None))
  in
  check Alcotest.int "one temp def (addr calc)" 1 (List.length temps)

(* ---------- translation invariants ---------- *)

let test_translation_well_formed () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (isa, chaining) ->
          let prog = Alpha.Assembler.assemble src in
          let cfg = { Config.default with isa; chaining } in
          let vm = Vm.create ~cfg ~kind:Vm.Acc prog in
          ignore (Vm.run ~fuel:1_000_000 vm);
          let ctx = Option.get (Vm.acc_ctx vm) in
          for s = 0 to Tcache.Acc.n_slots ctx.tc - 1 do
            let insn = Tcache.Acc.get ctx.tc s in
            if not (Accisa.Insn.well_formed insn) then
              Alcotest.failf "%s %s: ill-formed insn at slot %d: %s" name
                (mode_name (isa, chaining)) s
                (Accisa.Disasm.to_string insn);
            (match Accisa.Insn.dst_of insn with
            | Some d ->
              if d.dacc >= cfg.n_accs then
                Alcotest.failf "%s: accumulator out of range at slot %d" name s;
              if d.dacc < 0 && d.gdst = None then
                Alcotest.failf "%s: destination-less producer at slot %d" name s
            | None -> ());
            if isa = Config.Basic && not (Accisa.Insn.basic_formed insn) then
              (* the only legal gdst carriers in basic-ISA code are the VM's
                 own special instructions; plain ALU must not have one *)
              Alcotest.failf "%s basic: gdst on slot %d: %s" name s
                (Accisa.Disasm.to_string insn)
          done)
        all_modes)
    equivalence_cases

let test_modified_isa_fewer_insns () =
  let prog = Alpha.Assembler.assemble prog_gzip_fig2 in
  let count isa =
    let cfg = { Config.default with isa } in
    let vm = Vm.create ~cfg ~kind:Vm.Acc prog in
    ignore (Vm.run ~fuel:1_000_000 vm);
    let ex = Option.get (Vm.acc_exec vm) in
    (ex.stats.i_exec, ex.stats.alpha_retired)
  in
  let basic_i, basic_a = count Config.Basic in
  let mod_i, mod_a = count Config.Modified in
  check Alcotest.bool "same V-ISA work" true (abs (basic_a - mod_a) < 5);
  check Alcotest.bool
    (Printf.sprintf "modified executes fewer I-ISA insns (%d < %d)" mod_i basic_i)
    true (mod_i < basic_i)

let test_basic_isa_has_copies () =
  let prog = Alpha.Assembler.assemble prog_gzip_fig2 in
  let copies isa =
    let cfg = { Config.default with isa } in
    let vm = Vm.create ~cfg ~kind:Vm.Acc prog in
    ignore (Vm.run ~fuel:1_000_000 vm);
    let ex = Option.get (Vm.acc_exec vm) in
    let total = float_of_int ex.stats.i_exec in
    float_of_int ex.stats.by_class.(1) /. total
  in
  let b = copies Config.Basic and m = copies Config.Modified in
  check Alcotest.bool
    (Printf.sprintf "basic copy fraction (%.3f) > modified (%.3f)" b m)
    true (b > m);
  check Alcotest.bool "basic has substantial copies" true (b > 0.05)

(* ---------- equivalence (the central invariant) ---------- *)

let test_equivalence () =
  List.iter (fun (name, src) -> assert_equivalent name src) equivalence_cases

(* ---------- precise traps ---------- *)

let prog_trap_in_hot_loop =
  {|
  .text
_start:
  la    s0, arr
  ldiq  s1, 2000         ; walks far past the mapped data+heap region
  clr   t0
loop:
  sll   t0, 16, t1       ; stride 64KB to leave the heap quickly
  addq  t1, s0, t1
  ldq   t2, 0(t1)
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, loop
  clr  v0
  call_pal 0
  .data
  .align 8
arr:
  .space 64
  |}

let test_precise_trap_recovery () =
  let prog = Alpha.Assembler.assemble prog_trap_in_hot_loop in
  let reference = run_interp prog in
  check Alcotest.bool "reference faults" true
    (String.length reference.outcome >= 5 && String.sub reference.outcome 0 5 = "fault");
  List.iter
    (fun (isa, chaining) ->
      let got, vm = run_vm ~isa ~chaining prog in
      let label = "trap " ^ mode_name (isa, chaining) in
      check Alcotest.string (label ^ " outcome") reference.outcome got.outcome;
      check Alcotest.int64 (label ^ " regs") reference.regs got.regs;
      match Vm.acc_exec vm with
      | Some ex ->
        check Alcotest.bool (label ^ " trapped inside translated code") true
          (ex.stats.alpha_retired > 0)
      | None -> ())
    all_modes

(* dirty-accumulator recovery: a value whose only copy is in an accumulator
   at the faulting load (basic ISA) must be restored by the PEI map *)
let prog_trap_dirty_acc =
  {|
  .text
_start:
  la    s0, arr
  clr   t0
  ldiq  s1, 600
loop:
  addq  t0, 7, t5        ; t5 dies at the next iteration (local-ish)
  sll   t0, 14, t1
  addq  t1, s0, t1
  ldq   t2, 0(t1)        ; eventually faults
  addq  t5, t2, t0
  zapnot t0, 3, t0       ; keep the low 16 bits
  addq  t0, 1, t0
  cmplt t0, s1, t3
  bne   t3, loop
  clr  v0
  call_pal 0
  .data
  .align 8
arr:
  .space 64
  |}

let test_trap_dirty_accumulator_state () =
  let prog = Alpha.Assembler.assemble prog_trap_dirty_acc in
  let reference = run_interp prog in
  List.iter
    (fun (isa, chaining) ->
      let got, _ = run_vm ~isa ~chaining prog in
      let label = "dirty trap " ^ mode_name (isa, chaining) in
      check Alcotest.string (label ^ " outcome") reference.outcome got.outcome;
      check Alcotest.int64 (label ^ " regs") reference.regs got.regs)
    all_modes

(* ---------- translation cache flush (paper Section 4.1) ---------- *)

let test_flush_mid_run () =
  List.iter
    (fun (name, src) ->
      let prog = Alpha.Assembler.assemble src in
      let reference = run_interp prog in
      List.iter
        (fun kind ->
          let vm = Vm.create ~kind prog in
          (* run a slice, flush everything, continue to completion *)
          (match Vm.run ~fuel:2_000 vm with
          | Vm.Out_of_fuel -> ()
          | Vm.Exit _ -> () (* too short to interrupt; fine *)
          | Fault _ -> Alcotest.fail "unexpected fault in slice");
          Vm.flush vm;
          let outcome =
            match Vm.run ~fuel:10_000_000 vm with
            | Vm.Exit c -> Printf.sprintf "exit %d" c
            | Fault tr -> Format.asprintf "fault %a" Alpha.Interp.pp_trap tr
            | Out_of_fuel -> "fuel"
          in
          check Alcotest.string (name ^ " outcome after flush")
            reference.outcome outcome;
          check Alcotest.string (name ^ " output after flush") reference.output
            (Vm.output vm);
          check Alcotest.int64 (name ^ " regs after flush") reference.regs
            (Vm.reg_checksum vm))
        [ Vm.Acc; Vm.Straight_only ])
    [ ("counted loop", prog_counted_loop); ("nested calls", prog_nested_calls);
      ("jump table", prog_jump_table) ]

let test_flush_retranslates () =
  let prog = Alpha.Assembler.assemble prog_counted_loop in
  let vm = Vm.create ~kind:Vm.Acc prog in
  (match Vm.run ~fuel:800 vm with
  | Vm.Out_of_fuel -> ()
  | _ -> Alcotest.fail "slice should stop mid-loop");
  let ctx = Option.get (Vm.acc_ctx vm) in
  check Alcotest.bool "fragments exist" true
    (List.length (Tcache.Acc.fragments ctx.tc) > 0);
  Vm.flush vm;
  check Alcotest.int "cache empty after flush" 0
    (List.length (Tcache.Acc.fragments ctx.tc));
  ignore (Vm.run ~fuel:10_000_000 vm);
  check Alcotest.bool "fragments re-formed" true
    (List.length (Tcache.Acc.fragments ctx.tc) > 0)

(* ---------- copy-on-write guest memory ---------- *)

(* Mapping a VM's ~5.6 MB of heap, stack and dispatch table must not
   allocate it: chunks get backing only when the guest stores to them. *)
let test_create_allocation () =
  let prog = Oracle.Gen.assemble (Oracle.Gen.generate ~seed:1) in
  ignore (Vm.create ~kind:Vm.Acc prog : Vm.t);
  let before = Gc.allocated_bytes () in
  let vm = Vm.create ~kind:Vm.Acc prog in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity vm);
  if bytes >= 1048576. then
    Alcotest.failf "Vm.create allocated %.0f bytes (limit 1 MiB)" bytes

(* VMs on two domains at once each materialize their own chunks; none may
   write the shared zero chunk. *)
let test_cross_domain_zero_chunk () =
  let names = [ "gzip"; "mcf"; "parser"; "bzip2" ] in
  let ws =
    List.map (fun n -> Option.get (Workloads.find n)) names
    |> List.map (fun w -> (w, Workloads.program w, Workloads.reference w))
  in
  let run_all ws =
    List.map
      (fun (w, prog, _) ->
        let vm = Vm.create ~kind:Vm.Acc prog in
        let outcome =
          match Vm.run ~fuel:200_000_000 vm with
          | Vm.Exit c -> c
          | _ -> Alcotest.failf "%s did not exit" w.Workloads.name
        in
        (outcome, Vm.output vm))
      ws
  in
  let half = List.filteri (fun i _ -> i mod 2 = 0) ws
  and other = List.filteri (fun i _ -> i mod 2 = 1) ws in
  let d = Domain.spawn (fun () -> run_all other) in
  let got = run_all half in
  let got_other = Domain.join d in
  List.iter2
    (fun (w, _, (code, out, _)) (c, o) ->
      check Alcotest.int (w.Workloads.name ^ " exit") code c;
      check Alcotest.string (w.Workloads.name ^ " output") out o)
    (half @ other) (got @ got_other);
  let m = Machine.Memory.create () and unmapped = Machine.Memory.create () in
  Machine.Memory.map m ~addr:0 ~len:65536;
  check Alcotest.int64 "fresh chunk still all zero"
    (Machine.Memory.checksum unmapped ~addr:0 ~len:65536)
    (Machine.Memory.checksum m ~addr:0 ~len:65536)

(* A slot shadow (the engines' event templates) keeps derived values only
   while their slot is unchanged: a patch empties that slot, new slots
   start empty, and a new cache generation empties every slot. *)
let test_tcache_shadow () =
  let tc = Tcache.Acc.create () in
  let push () = ignore (Tcache.Acc.push tc (Accisa.Insn.Br { target = 0 }) : int) in
  let sh = Tcache.shadow "empty" in
  let view () =
    Tcache.Acc.sync_shadow tc sh;
    List.init (Tcache.Acc.n_slots tc) (fun s ->
        if sh.cells.(s) == sh.empty then "-" else sh.cells.(s))
  in
  let fill () =
    Tcache.Acc.sync_shadow tc sh;
    for s = 0 to Tcache.Acc.n_slots tc - 1 do
      if sh.cells.(s) == sh.empty then sh.cells.(s) <- string_of_int s
    done
  in
  let expect what want = check Alcotest.(list string) what want (view ()) in
  push ();
  push ();
  push ();
  expect "new slots start empty" [ "-"; "-"; "-" ];
  fill ();
  expect "filled" [ "0"; "1"; "2" ];
  Tcache.Acc.patch tc 1 (Accisa.Insn.Br { target = 2 });
  expect "a patch empties its slot" [ "0"; "-"; "2" ];
  fill ();
  push ();
  expect "growth keeps filled slots" [ "0"; "1"; "2"; "-" ];
  Tcache.Acc.clear tc;
  push ();
  push ();
  expect "a new generation empties every slot" [ "-"; "-" ]

(* ---------- fuel stops ---------- *)

(* Superblock formation interprets, so it must stop with the fuel. Each
   of these stops lands inside a formation that would otherwise run on to
   the superblock size limit (eon's by 46 instructions). Both backends,
   both sink-less engines. *)
let test_fuel_stop_inside_formation () =
  List.iter
    (fun (name, fuel) ->
      let prog = Workloads.program ~scale:1 (Option.get (Workloads.find name)) in
      List.iter
        (fun (kind, kind_name) ->
          List.iter
            (fun engine ->
              let what =
                Printf.sprintf "%s fuel %d %s %s" name fuel kind_name
                  (Config.engine_name engine)
              in
              let cfg = { Config.default with engine } in
              let vm = Vm.create ~cfg ~kind prog in
              check Alcotest.bool (what ^ ": out of fuel") true
                (Vm.run ~fuel vm = Vm.Out_of_fuel);
              check Alcotest.int (what ^ ": fuel left") 0 vm.fuel)
            [ Config.Matched; Config.Threaded ])
        [ (Vm.Acc, "acc"); (Vm.Straight_only, "straight") ])
    [ ("eon", 19143); ("crafty", 17779); ("vortex", 14963); ("vortex", 19751) ]

let suite =
  [
    ("superblock formed for hot loop", `Quick, test_superblock_formed);
    ("fragment re-executed", `Quick, test_superblock_execution_counts);
    ("formation ends at indirect jumps", `Quick, test_formation_ends_at_indirect_jump);
    ("usage: local/liveout/no-user-global", `Quick, test_usage_categories);
    ("usage: communication global", `Quick, test_usage_comm_global);
    ("usage: decomposition temp", `Quick, test_usage_temp);
    ("translated code well-formed (all modes)", `Slow, test_translation_well_formed);
    ("modified ISA executes fewer instructions", `Quick, test_modified_isa_fewer_insns);
    ("basic ISA pays for copies", `Quick, test_basic_isa_has_copies);
    ("interpreter/VM equivalence (all modes)", `Slow, test_equivalence);
    ("precise trap recovery", `Quick, test_precise_trap_recovery);
    ("trap with dirty accumulator state", `Quick, test_trap_dirty_accumulator_state);
    ("cache flush mid-run preserves semantics", `Quick, test_flush_mid_run);
    ("cache flush empties and re-forms", `Quick, test_flush_retranslates);
    ("Vm.create allocates under 1 MiB", `Quick, test_create_allocation);
    ("VMs on two domains leave the zero chunk zero", `Quick, test_cross_domain_zero_chunk);
    ("tcache slot shadow follows patches and flushes", `Quick, test_tcache_shadow);
    ("fuel stop inside superblock formation", `Quick, test_fuel_stop_inside_formation);
  ]
