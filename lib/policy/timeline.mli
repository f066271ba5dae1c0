(** The regulatory timeline: which Advanced Computing Rule regime applies
    at a given date, and a unified classification across regimes.

    The general form is a {!schedule}: an ordered list of dated
    {!Regime.t} values, each in force from its date until the next
    entry. The historical three-era view (paper Secs. 2.1-2.2) remains
    as the [regime] enum and {!default_schedule}:
    - before October 2022: no device-level AI compute rule;
    - October 2022 - October 2023: the TPP x device-bandwidth rule;
    - from October 2023: the TPP x performance-density rule with the
      data-center / non-data-center split (still in effect through the
      December 2024 and January 2025 updates, which did not change
      device-level thresholds). *)

type date = Regime.date = { year : int; month : int }

val date : int -> int -> date
(** [date year month]; raises [Invalid_argument] on a month outside
    1-12. *)

val compare_date : date -> date -> int

type regime = Pre_acr | Acr_oct_2022 | Acr_oct_2023

val regime_at : date -> regime
val regime_to_string : regime -> string

val to_value : regime -> Regime.t
(** The registry value behind each historical era ([Pre_acr] maps to
    {!Regime.pre_acr}, which has no rules). *)

(** {2 Schedules} *)

type schedule = (date * Regime.t) list
(** Ascending by date; each regime is in force from its date until the
    next entry's. Before the first entry nothing applies. Build with
    {!schedule} to get the ordering validated. *)

val schedule : (date * Regime.t) list -> schedule
(** Sorts by date; raises [Invalid_argument] on duplicate effective
    dates. *)

val default_schedule : schedule
(** The published history: {!Regime.acr_2022} from October 2022,
    {!Regime.acr_2023} from October 2023. *)

val regime_in_force : ?schedule:schedule -> date -> Regime.t option
(** [None] before the first entry. [schedule] defaults to
    {!default_schedule}. *)

val verdict_at :
  ?schedule:schedule ->
  date ->
  market:Regime.market ->
  Regime.subject ->
  Regime.verdict
(** The verdict of whichever regime the schedule has in force at the
    date ([Unregulated] before the first entry). *)

(** {2 The historical three-era view} *)

type ruling = Unregulated | Nac_notification | License

val ruling_to_string : ruling -> string

val ruling_of_verdict : Regime.verdict -> ruling
(** The 1:1 mapping between DSL verdicts and timeline rulings. *)

val classify_at :
  date -> market:Regime.market -> Spec.t -> ruling
(** The device's status under the regime in force at [date] (evaluated
    through {!default_schedule}). The market segment is ignored by the
    earlier regimes. *)

val history :
  market:Regime.market -> Spec.t -> (regime * ruling) list
(** The device's status under each successive regime - how the
    cat-and-mouse game looked from one product's perspective. *)
