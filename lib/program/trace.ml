type event = {
  seq : int;
  pc : int;
  size : int;
  instr : Isa.Instr.t;
  block_id : int;
  body_index : int;
  func : int;
  mem_addr : int;
  is_cond_branch : bool;
  taken : bool;
  next_pc : int;
  fetch_break : bool;
}

type t = event array

let control_uid_base = 1_000_000_000
let data_base = 0x4000_0000
let region_span = 0x0100_0000

(* Order-independent per-access randomness: every (seed, uid, count)
   triple hashes to its own one-shot SplitMix64 generator, so a pass
   that reorders instructions inside a block leaves every other address
   stream untouched.

   This is the per-access hot path of event generation, so the draws of
   [Util.Rng.create]/[chance]/[int] are open-coded in [mem_address]:
   straight-line Int64 locals stay unboxed, where the generic generator
   pays a boxed mutable state cell and a write barrier per draw.  The
   value sequence is bit-identical to the reference expression
     let rng =
       Util.Rng.create
         ((seed * 0x9E3779B1) lxor (uid * 0x85EBCA77)
          lxor (count * 0xC2B2AE3D))
     in
     if m.randomness > 0.0 && Util.Rng.chance rng m.randomness then
       Util.Rng.int rng slots
     else count mod slots
   (golden-digest tested); any change here must preserve it. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mem_address ~seed ~uid ~count (m : Isa.Instr.mem_signature) =
  let base = data_base + (m.region * region_span) in
  let ws = max m.stride m.working_set in
  let slots = max 1 (ws / max 1 m.stride) in
  let p = m.randomness in
  let slot =
    if p <= 0.0 then count mod slots
    else begin
      let s1 =
        Int64.add
          (Int64.of_int
             ((seed * 0x9E3779B1) lxor (uid * 0x85EBCA77)
             lxor (count * 0xC2B2AE3D)))
          golden_gamma
      in
      if p >= 1.0 then
        (* chance is certain and draws nothing; int takes the first
           output *)
        Int64.to_int (Int64.shift_right_logical (mix64 s1) 2) mod slots
      else
        let u =
          Int64.to_float (Int64.shift_right_logical (mix64 s1) 11)
          /. 9007199254740992.0 *. 1.0
        in
        if u < p then
          let s2 = Int64.add s1 golden_gamma in
          Int64.to_int (Int64.shift_right_logical (mix64 s2) 2) mod slots
        else count mod slots
    end
  in
  base + (slot * m.stride)

(* Synthetic control-transfer instruction for a block terminator. *)
let terminator_instr block_id (term : Block.terminator) =
  let uid = control_uid_base + block_id in
  let mk opcode = Isa.Instr.make ~uid ~opcode () in
  match term with
  | Block.Fallthrough _ -> None
  | Block.Cond_branch _ -> Some (mk Isa.Opcode.Branch)
  | Block.Jump _ -> Some (mk Isa.Opcode.Branch)
  | Block.Call _ -> Some (mk Isa.Opcode.Call)
  | Block.Return -> Some (mk Isa.Opcode.Return)

let length_of_path program path =
  Array.fold_left
    (fun acc block_id ->
      let b = Program.block program block_id in
      acc + Array.length b.Block.body
      + (match b.Block.term with Block.Fallthrough _ -> 0 | _ -> 1))
    0 path

let dummy_instr = Isa.Instr.make ~uid:(-1) ~opcode:Isa.Opcode.Nop ()

let dummy_event =
  {
    seq = -1;
    pc = 0;
    size = Isa.Instr.size_bytes dummy_instr;
    instr = dummy_instr;
    block_id = -1;
    body_index = -1;
    func = -1;
    mem_addr = -1;
    is_cond_branch = false;
    taken = false;
    next_pc = 0;
    fetch_break = false;
  }

module Stream = struct
  (* The cursor delivers events out of a batch buffer refilled one block
     visit at a time.  Batching is what makes pulls cheap: events inside
     a visit are address-contiguous, so every in-batch [next_pc] is just
     [pc + size], and only the batch-final event needs to know where the
     stream continues — the block address of the next visit that yields
     an event, computable without generating anything.  Each event is
     built exactly once, lookahead-free. *)
  type cursor = {
    mutable buf : event array;
    mutable pos : int;  (* next index to deliver *)
    mutable lim : int;  (* exclusive end of valid events; pos = lim when
                           the batch is drained *)
    refill : cursor -> unit;  (* produce the next batch; leaves
                                 pos = lim = 0 at end of stream *)
  }

  let of_program program ~seed path =
    (* Per-instruction access counters, dense by uid (body uids are a
       compact range; synthetic terminators never touch memory). *)
    let counts = Array.make (Program.max_uid program + 1) 0 in
    let next_count uid =
      let c = counts.(uid) in
      counts.(uid) <- c + 1;
      c
    in
    let npath = Array.length path in
    let visit = ref 0 in
    let seq = ref 0 in
    (* pc of the first event produced at or after visit [v]: the block's
       address — for an empty body the first event is the terminator,
       which sits at the block address.  Visits yielding no event (empty
       body, fallthrough) are skipped. *)
    let rec next_start v =
      if v >= npath then None
      else
        let b = Program.block program path.(v) in
        if
          Array.length b.Block.body > 0
          || (match b.Block.term with Block.Fallthrough _ -> false | _ -> true)
        then Some (Program.block_addr program path.(v))
        else next_start (v + 1)
    in
    let rec refill c =
      if !visit >= npath then begin
        c.pos <- 0;
        c.lim <- 0
      end
      else begin
        let v = !visit in
        let block_id = path.(v) in
        let b = Program.block program block_id in
        let body = b.Block.body in
        let nbody = Array.length body in
        let term = terminator_instr block_id b.Block.term in
        let nevents = nbody + (match term with Some _ -> 1 | None -> 0) in
        incr visit;
        if nevents = 0 then refill c
        else begin
          if Array.length c.buf < nevents then
            c.buf <- Array.make (max nevents (2 * Array.length c.buf))
                dummy_event;
          (* Resolved before building: the batch-final event's successor
             pc.  At end of stream the expander's convention is the
             fall-through address, filled in below once the final
             event's own pc is known. *)
          let continue_pc = next_start !visit in
          let pc = ref (Program.block_addr program block_id) in
          for i = 0 to nbody - 1 do
            let ins = body.(i) in
            let size = Isa.Instr.size_bytes ins in
            let mem_addr =
              match ins.Isa.Instr.mem with
              | None -> -1
              | Some m ->
                mem_address ~seed ~uid:ins.uid ~count:(next_count ins.uid) m
            in
            let is_control = Isa.Opcode.is_control ins.opcode in
            let last = i = nevents - 1 in
            let next_pc =
              if not last then !pc + size
              else
                match continue_pc with
                | Some a -> a
                | None -> !pc + size
            in
            c.buf.(i) <-
              {
                seq = !seq;
                pc = !pc;
                size;
                instr = ins;
                block_id;
                body_index = i;
                func = b.Block.func;
                mem_addr;
                is_cond_branch = false;
                (* Body control instructions (Approach-1 switch
                   branches) are unconditional and always taken. *)
                taken = is_control;
                next_pc;
                fetch_break = is_control || next_pc <> !pc + size;
              };
            incr seq;
            pc := !pc + size
          done;
          (match term with
          | None -> ()
          | Some ins ->
            let tsize = Isa.Instr.size_bytes ins in
            let taken =
              match b.Block.term with
              | Block.Fallthrough _ -> false
              | Block.Jump _ | Block.Call _ | Block.Return -> true
              | Block.Cond_branch { taken; _ } ->
                v + 1 < npath && path.(v + 1) = taken
            in
            let next_pc =
              match continue_pc with Some a -> a | None -> !pc + tsize
            in
            c.buf.(nbody) <-
              {
                seq = !seq;
                pc = !pc;
                size = tsize;
                instr = ins;
                block_id;
                body_index = -1;
                func = b.Block.func;
                mem_addr = -1;
                is_cond_branch =
                  (match b.Block.term with
                  | Block.Cond_branch _ -> true
                  | Block.Fallthrough _ | Block.Jump _ | Block.Call _
                  | Block.Return -> false);
                taken;
                next_pc;
                fetch_break = taken || next_pc <> !pc + tsize;
              };
            incr seq);
          c.pos <- 0;
          c.lim <- nevents
        end
      end
    in
    let c = { buf = [||]; pos = 0; lim = 0; refill } in
    refill c;
    c

  let of_trace (tr : t) =
    { buf = tr; pos = 0; lim = Array.length tr;
      refill = (fun c -> c.pos <- 0; c.lim <- 0) }

  (* Physically distinct from every event a cursor can deliver (buffers
     are overwritten up to [lim] before delivery), so [next_ev] callers
     detect end of stream with one pointer comparison instead of paying
     a [Some] allocation per event. *)
  let end_marker = { dummy_event with seq = -1 }

  let next_ev c =
    if c.pos < c.lim then begin
      let e = c.buf.(c.pos) in
      c.pos <- c.pos + 1;
      e
    end
    else if c.lim = 0 then end_marker
    else begin
      c.refill c;
      if c.pos < c.lim then begin
        let e = c.buf.(c.pos) in
        c.pos <- c.pos + 1;
        e
      end
      else end_marker
    end

  let next c =
    let e = next_ev c in
    if e == end_marker then None else Some e

  let peek c =
    if c.pos < c.lim then Some c.buf.(c.pos)
    else if c.lim = 0 then None
    else begin
      c.refill c;
      if c.pos < c.lim then Some c.buf.(c.pos) else None
    end

  let rec iter f c =
    for i = c.pos to c.lim - 1 do
      f c.buf.(i)
    done;
    if c.lim > 0 then begin
      c.pos <- c.lim;
      c.refill c;
      iter f c
    end

  let fold f init c =
    let acc = ref init in
    iter (fun e -> acc := f !acc e) c;
    !acc

  let to_trace c =
    let events = ref [] in
    let count = ref 0 in
    iter
      (fun e ->
        events := e :: !events;
        incr count)
      c;
    let rec fill arr i = function
      | [] -> arr
      | e :: tl ->
        arr.(i) <- e;
        fill arr (i - 1) tl
    in
    match !events with
    | [] -> [||]
    | last :: _ as l -> fill (Array.make !count last) (!count - 1) l
end

let expand program ~seed path =
  let n = length_of_path program path in
  if n = 0 then [||]
  else begin
    let arr = Array.make n dummy_event in
    let i = ref 0 in
    Stream.iter
      (fun e ->
        arr.(!i) <- e;
        incr i)
      (Stream.of_program program ~seed path);
    arr
  end

module Pack = struct
  (* Compact binary trace container (DESIGN.md §13).

     Layout (all integers little-endian):

       0   magic   "CRTCPK01"                      8 bytes
       8   version i32                             4 bytes
       12  count   i64 (number of event records)   8 bytes
       20  digest  MD5 of the record region        16 bytes
       36  pad     zero                            12 bytes
       48  records count x 32 bytes

     Record (32 bytes): uid i32 | pc i32 | next_pc i32 | block_id i32 |
     body_index i32 (-1 = terminator) | flags u8 (bit0 is_cond_branch,
     bit1 taken, bit2 fetch_break) | pad 3 | mem_addr i64 (-1 = none).
     [seq] is the record index; [size], [func] and the [instr] pointer
     are resolved from the program at replay, so a pack is only
     meaningful against the exact program it was recorded from — the
     store key (context key x scheme) enforces that.

     Replay maps the file with [Unix.map_file]: the payload stays in the
     page cache (no read copies), decoding works in unboxed ints, and
     the only per-event allocation is the delivered event record itself
     — required by the cursor contract, since consumers may retain
     events beyond the refill batch. *)

  type t = {
    map : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout)
        Bigarray.Array1.t;
    count : int;
    file_bytes : int;
  }

  let version = 1
  let magic = "CRTCPK01"
  let header_bytes = 48
  let record_bytes = 32

  let count t = t.count
  let file_bytes t = t.file_bytes

  let flag_bits e =
    (if e.is_cond_branch then 1 else 0)
    lor (if e.taken then 2 else 0)
    lor if e.fetch_break then 4 else 0

  let put_record b e =
    Bytes.set_int32_le b 0 (Int32.of_int e.instr.Isa.Instr.uid);
    Bytes.set_int32_le b 4 (Int32.of_int e.pc);
    Bytes.set_int32_le b 8 (Int32.of_int e.next_pc);
    Bytes.set_int32_le b 12 (Int32.of_int e.block_id);
    Bytes.set_int32_le b 16 (Int32.of_int e.body_index);
    Bytes.set_int32_le b 20 (Int32.of_int (flag_bits e));
    Bytes.set_int64_le b 24 (Int64.of_int e.mem_addr)

  let write_header oc ~count ~digest =
    output_string oc magic;
    let b = Bytes.make (header_bytes - 8) '\000' in
    Bytes.set_int32_le b 0 (Int32.of_int version);
    Bytes.set_int64_le b 4 (Int64.of_int count);
    Bytes.blit_string digest 0 b 12 16;
    output_bytes oc b

  let record ~path cursor =
    let oc = open_out_bin path in
    let count = ref 0 in
    (try
       write_header oc ~count:0 ~digest:(String.make 16 '\000');
       let b = Bytes.create record_bytes in
       Stream.iter
         (fun e ->
           put_record b e;
           output_bytes oc b;
           incr count)
         cursor;
       close_out oc
     with exn ->
       close_out_noerr oc;
       raise exn);
    (* One streaming pass for the payload digest, then patch the header
       in place: the file never holds a valid digest over partial data. *)
    let digest =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          seek_in ic header_bytes;
          Digest.channel ic (!count * record_bytes))
    in
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> write_header oc ~count:!count ~digest);
    !count

  let open_file path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len < header_bytes then Error "pack file shorter than header"
          else begin
            let hdr = really_input_string ic header_bytes in
            if String.sub hdr 0 8 <> magic then Error "bad pack magic"
            else begin
              let ver = Int32.to_int (String.get_int32_le hdr 8) in
              if ver <> version then
                Error (Printf.sprintf "pack version %d, expected %d" ver version)
              else begin
                let count = Int64.to_int (String.get_int64_le hdr 12) in
                let digest = String.sub hdr 20 16 in
                if count < 0 || len <> header_bytes + (count * record_bytes)
                then Error "pack length does not match record count"
                else begin
                  seek_in ic header_bytes;
                  let actual = Digest.channel ic (count * record_bytes) in
                  if not (Digest.equal actual digest) then
                    Error "pack payload digest mismatch"
                  else Ok (count, len)
                end
              end
            end
          end)
    with
    | exception Sys_error e -> Error e
    | exception End_of_file -> Error "truncated pack header"
    | Error _ as e -> e
    | Ok (count, len) -> (
      match
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false
                 [| len |]))
      with
      | map -> Ok { map; count; file_bytes = len }
      | exception Unix.Unix_error (e, _, _) ->
        Error (Unix.error_message e))

  (* Field readers over the mapped file; manual byte assembly keeps the
     hot loop free of Int32/Int64 boxing. *)
  let[@inline] u8 m off = Char.code (Bigarray.Array1.unsafe_get m off)

  let[@inline] u32 m off =
    u8 m off
    lor (u8 m (off + 1) lsl 8)
    lor (u8 m (off + 2) lsl 16)
    lor (u8 m (off + 3) lsl 24)

  let[@inline] i32 m off =
    let v = u32 m off in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  let[@inline] i64_as_int m off =
    let lo = u32 m off and hi = u32 m (off + 4) in
    if hi = 0xFFFF_FFFF && lo = 0xFFFF_FFFF then -1
    else (hi lsl 32) lor lo

  let batch = 512

  let cursor t program =
    let nblocks =
      Array.fold_left
        (fun acc (b : Block.t) -> max acc (b.Block.id + 1))
        0 (Program.blocks program)
    in
    (* Static side resolved once per cursor: body instructions dense by
       uid, synthetic terminators and functions dense by block id. *)
    let body = Array.make (Program.max_uid program + 2) dummy_instr in
    Program.iter_instrs
      (fun _ i -> body.(i.Isa.Instr.uid) <- i)
      program;
    let term = Array.make nblocks dummy_instr in
    let func = Array.make nblocks (-1) in
    Array.iter
      (fun (b : Block.t) ->
        func.(b.Block.id) <- b.Block.func;
        match terminator_instr b.Block.id b.Block.term with
        | Some i -> term.(b.Block.id) <- i
        | None -> ())
      (Program.blocks program);
    let map = t.map in
    let idx = ref 0 in
    let refill c =
      let i0 = !idx in
      if i0 >= t.count then begin
        c.Stream.pos <- 0;
        c.Stream.lim <- 0
      end
      else begin
        let n = min batch (t.count - i0) in
        if Array.length c.Stream.buf < n then
          c.Stream.buf <- Array.make n dummy_event;
        let buf = c.Stream.buf in
        for k = 0 to n - 1 do
          let off = header_bytes + ((i0 + k) * record_bytes) in
          let uid = u32 map off in
          let instr =
            if uid >= control_uid_base then term.(uid - control_uid_base)
            else body.(uid)
          in
          let flags = u8 map (off + 20) in
          let block_id = u32 map (off + 12) in
          buf.(k) <-
            {
              seq = i0 + k;
              pc = u32 map (off + 4);
              size = Isa.Instr.size_bytes instr;
              instr;
              block_id;
              body_index = i32 map (off + 16);
              func = func.(block_id);
              mem_addr = i64_as_int map (off + 24);
              is_cond_branch = flags land 1 <> 0;
              taken = flags land 2 <> 0;
              next_pc = u32 map (off + 8);
              fetch_break = flags land 4 <> 0;
            }
        done;
        idx := i0 + n;
        c.Stream.pos <- 0;
        c.Stream.lim <- n
      end
    in
    let c = { Stream.buf = [||]; pos = 0; lim = 0; refill } in
    refill c;
    c
end

let is_work (e : event) =
  e.instr.opcode <> Isa.Opcode.Cdp_switch
  && (e.instr.uid >= control_uid_base
      || not (Isa.Opcode.is_control e.instr.opcode))

let work_count t =
  Array.fold_left (fun acc e -> if is_work e then acc + 1 else acc) 0 t
