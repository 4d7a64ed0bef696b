(* What every workload shares: the row record, statistics, the rep
   loop, output gates, and the process and /proc helpers the harness
   uses to measure from outside the program. *)

type row = { metric : string; unit_ : string; samples : float list }
(** One reported metric: its value is the median of [samples] (one per
    rep, pass or spawn). *)

let row metric unit_ samples = { metric; unit_; samples }
let one metric unit_ v = { metric; unit_; samples = [ v ] }

type outcome = {
  rows : row list;
  attempted : int;
  failed : int;
  errors : string list;  (** failed output gates; empty = correct *)
}

(* Workload sizes. [quick] is the smoke-test scale used by the
   [dune runtest] stanza: every workload in well under a second. [gap]
   runs before each rep and once after the last: the harness takes its
   set-up and host-speed samples there (E2e.run_workload). *)
type scale = { quick : bool; seed : int; seconds : float; gap : unit -> unit }

(* ---- statistics --------------------------------------------------- *)

let sorted l = List.sort Float.compare l
let sum = List.fold_left ( +. ) 0.
let fi = float_of_int
let safe_div a b = if b = 0. then 0. else a /. b

(* Median of the samples; the mean of the middle pair for even counts. *)
let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile of an unsorted array, [p] in [0, 1]. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let k = Array.length s in
  if k = 0 then nan
  else s.(min (k - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int k)) - 1)))

(* First and third quartiles by the "exclusive" method (that of
   Python's statistics.quantiles); needs at least 2 samples. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let k = Array.length a in
  let q i =
    let j = max 1 (min (k - 1) (i * (k + 1) / 4)) in
    let delta = fi ((i * (k + 1)) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 3)

(* Rep spread: interquartile range / median, 0 for a single sample. *)
let spread l =
  match l with
  | [] | [ _ ] -> 0.
  | _ ->
      let q1, q3 = quartiles l in
      let m = median l in
      if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m


(* ---- timing -------------------------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [f]'s last result and the median of 3 timed calls. *)
let timed3 f =
  let runs = List.init 3 (fun _ -> timed f) in
  (fst (List.nth runs 2), median (List.map snd runs))

(* Run [f] rep after rep until [seconds] of measuring have passed, at
   least once, with [sc.gap] before each rep and after the last. Time
   spent in the gaps does not count. Returns the per-rep results in
   order. *)
let reps (sc : scale) ?(seconds = sc.seconds) f =
  let rec go acc spent =
    sc.gap ();
    let x, t = timed f in
    let spent = spent +. t in
    if spent < seconds then go (x :: acc) spent
    else begin
      sc.gap ();
      List.rev (x :: acc)
    end
  in
  go [] 0.

(* A fixed piece of work that calls no code of the repository: a
   xorshift walk incrementing a 1 MB int array. Its time follows the
   host's speed, which on a shared VM drops by a third or more for
   minutes at a time; --compare reads it to tell a slower host from
   slower code. *)
let host_ref_cells = lazy (Array.make 131_072 0)

let host_ref_s () =
  let a = Lazy.force host_ref_cells in
  let mask = Array.length a - 1 in
  let x = ref 88_172_645_463_325_252 in
  let (), s =
    timed (fun () ->
        for _ = 1 to 2_000_000 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17);
          let i = !x land mask in
          a.(i) <- a.(i) + 1
        done)
  in
  s

(* User + system CPU of this process and its reaped children. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---- output gates -------------------------------------------------- *)

type gates = string list ref

let gates () : gates = ref []

let gate (g : gates) ok fmt =
  Printf.ksprintf (fun msg -> if not ok then g := msg :: !g) fmt

(* ---- /proc readers ------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* VmHWM (peak resident set) of a process in MB; [None] once it has
   exited or off Linux. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | None -> None
  | Some s ->
      List.find_map
        (fun line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (fi kb /. 1024.))
          else None)
        (String.split_on_char '\n' s)

let self_vmhwm_mb () = Option.value ~default:nan (vmhwm_mb "self")

(* Largest size the OCaml heap has reached, in MB. *)
let top_heap_mb () = fi (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

(* User + system CPU seconds of a live process, all threads included,
   from /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s -> (
      (* the command name may hold spaces: fields start after ") " *)
      let i = String.rindex s ')' in
      let fields =
        String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
      in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some st -> fi (int_of_string u + int_of_string st) /. 100.
      | _ -> nan)

(* ---- processes and scratch space ----------------------------------- *)

(* The lcp CLI built next to the harness (_build/default/bin/main.exe). *)
let lcp_bin () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/main.exe"

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Spawn [argv] with stdin/stdout on /dev/null and stderr inherited. *)
let spawn argv =
  let dn = devnull () in
  Fun.protect
    ~finally:(fun () -> Unix.close dn)
    (fun () -> Unix.create_process argv.(0) argv dn dn Unix.stderr)

let run_quiet argv = waitpid_retry (spawn argv)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Scratch space lives under the working directory (the checkout the
   benchmark runs in), one directory per process, removed at exit.
   Paths stay relative so Unix socket paths stay short. *)
let scratch_root = ".e2e-scratch"

let scratch_dir =
  lazy
    (let d = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir scratch_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir d 0o700;
     at_exit (fun () ->
         rm_rf d;
         try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
     d)

let fresh_dir =
  let c = ref 0 in
  fun name ->
    incr c;
    let d =
      Filename.concat (Lazy.force scratch_dir) (Printf.sprintf "%s-%d" name !c)
    in
    Unix.mkdir d 0o700;
    d
