package redfish

import (
	"time"

	"ofmf/internal/odata"
)

// EventType enumerates the Redfish event types the OFMF emits.
const (
	EventResourceAdded   = "ResourceAdded"
	EventResourceRemoved = "ResourceRemoved"
	EventResourceUpdated = "ResourceUpdated"
	EventStatusChange    = "StatusChange"
	EventAlert           = "Alert"
	EventMetricReport    = "MetricReport"
)

// EventService describes the service's event capabilities and holds the
// subscription collection.
type EventService struct {
	odata.Resource
	ServiceEnabled               bool         `json:"ServiceEnabled"`
	DeliveryRetryAttempts        int          `json:"DeliveryRetryAttempts"`
	DeliveryRetryIntervalSeconds int          `json:"DeliveryRetryIntervalSeconds"`
	EventTypesForSubscription    []string     `json:"EventTypesForSubscription"`
	ServerSentEventURI           string       `json:"ServerSentEventUri,omitempty"`
	Status                       odata.Status `json:"Status"`
	Subscriptions                *odata.Ref   `json:"Subscriptions,omitempty"`
}

// EventDestination is one subscription: where to deliver, and which events.
type EventDestination struct {
	odata.Resource
	Destination          string       `json:"Destination"`
	Protocol             string       `json:"Protocol"` // Redfish
	Context              string       `json:"Context,omitempty"`
	EventTypes           []string     `json:"EventTypes,omitempty"`
	OriginResources      []odata.Ref  `json:"OriginResources,omitempty"`
	SubordinateResources bool         `json:"SubordinateResources,omitempty"`
	Status               odata.Status `json:"Status"`
}

// Event is the payload delivered to subscribers.
type Event struct {
	ODataType string        `json:"@odata.type"`
	ID        string        `json:"Id"`
	Name      string        `json:"Name"`
	Context   string        `json:"Context,omitempty"`
	Events    []EventRecord `json:"Events"`
}

// EventRecord is one entry within an Event payload.
type EventRecord struct {
	EventType         string     `json:"EventType"`
	EventID           string     `json:"EventId"`
	EventTimestamp    string     `json:"EventTimestamp"`
	Severity          string     `json:"Severity,omitempty"`
	Message           string     `json:"Message,omitempty"`
	MessageID         string     `json:"MessageId,omitempty"`
	MessageArgs       []string   `json:"MessageArgs,omitempty"`
	OriginOfCondition *odata.Ref `json:"OriginOfCondition,omitempty"`
}

// TaskState enumerates Task.TaskState values.
const (
	TaskNew       = "New"
	TaskRunning   = "Running"
	TaskCompleted = "Completed"
	TaskException = "Exception"
	TaskCancelled = "Cancelled"
)

// TaskService holds the task collection.
type TaskService struct {
	odata.Resource
	ServiceEnabled                  bool         `json:"ServiceEnabled"`
	CompletedTaskOverWritePolicy    string       `json:"CompletedTaskOverWritePolicy,omitempty"`
	LifeCycleEventOnTaskStateChange bool         `json:"LifeCycleEventOnTaskStateChange"`
	Status                          odata.Status `json:"Status"`
	Tasks                           *odata.Ref   `json:"Tasks,omitempty"`
}

// Task is one asynchronous operation with a task monitor.
type Task struct {
	odata.Resource
	TaskState       string          `json:"TaskState"`
	TaskStatus      string          `json:"TaskStatus,omitempty"`
	PercentComplete int             `json:"PercentComplete"`
	StartTime       string          `json:"StartTime,omitempty"`
	EndTime         string          `json:"EndTime,omitempty"`
	TaskMonitor     string          `json:"TaskMonitor,omitempty"`
	Messages        []odata.Message `json:"Messages,omitempty"`
}

// SessionService holds authentication sessions.
type SessionService struct {
	odata.Resource
	ServiceEnabled bool         `json:"ServiceEnabled"`
	SessionTimeout int          `json:"SessionTimeout"` // seconds
	Status         odata.Status `json:"Status"`
	Sessions       *odata.Ref   `json:"Sessions,omitempty"`
}

// Session is one authenticated session.
type Session struct {
	odata.Resource
	UserName    string      `json:"UserName"`
	CreatedTime string      `json:"CreatedTime,omitempty"`
	Oem         *SessionOem `json:"Oem,omitempty"`
}

// SessionOem carries the hash the OFMF validates a session's token
// against; the token itself is never stored.
type SessionOem struct {
	OFMF struct {
		TokenSHA256 string `json:"TokenSHA256"`
	} `json:"OFMF"`
}

// TelemetryService holds metric definitions and reports.
type TelemetryService struct {
	odata.Resource
	Status                  odata.Status `json:"Status"`
	MinCollectionInterval   string       `json:"MinCollectionInterval,omitempty"`
	MetricDefinitions       *odata.Ref   `json:"MetricDefinitions,omitempty"`
	MetricReportDefinitions *odata.Ref   `json:"MetricReportDefinitions,omitempty"`
	MetricReports           *odata.Ref   `json:"MetricReports,omitempty"`
}

// MetricDefinition describes one metric's semantics.
type MetricDefinition struct {
	odata.Resource
	MetricType       string   `json:"MetricType,omitempty"`     // Numeric, Gauge, Counter
	MetricDataType   string   `json:"MetricDataType,omitempty"` // Decimal, Integer
	Units            string   `json:"Units,omitempty"`
	Accuracy         float64  `json:"Accuracy,omitempty"`
	SensingInterval  string   `json:"SensingInterval,omitempty"`
	MetricProperties []string `json:"MetricProperties,omitempty"`
}

// MetricReportDefinition schedules report generation.
type MetricReportDefinition struct {
	odata.Resource
	MetricReportDefinitionType string       `json:"MetricReportDefinitionType"` // Periodic, OnChange, OnRequest
	Schedule                   *Schedule    `json:"Schedule,omitempty"`
	ReportActions              []string     `json:"ReportActions,omitempty"`
	ReportUpdates              string       `json:"ReportUpdates,omitempty"`
	Status                     odata.Status `json:"Status"`
	Metrics                    []MetricSpec `json:"Metrics,omitempty"`
}

// Schedule gives the recurrence interval of a periodic report.
type Schedule struct {
	RecurrenceInterval string `json:"RecurrenceInterval"` // ISO8601 duration
}

// MetricSpec names one metric captured by a report definition.
type MetricSpec struct {
	MetricID         string   `json:"MetricId"`
	MetricProperties []string `json:"MetricProperties,omitempty"`
}

// MetricReport carries collected metric values.
type MetricReport struct {
	odata.Resource
	MetricReportDefinition *odata.Ref    `json:"MetricReportDefinition,omitempty"`
	Timestamp              string        `json:"Timestamp,omitempty"`
	MetricValues           []MetricValue `json:"MetricValues"`
}

// MetricValue is one sampled value.
type MetricValue struct {
	MetricID       string `json:"MetricId"`
	MetricValue    string `json:"MetricValue"`
	Timestamp      string `json:"Timestamp"`
	MetricProperty string `json:"MetricProperty,omitempty"`
}

// AggregationService is the OFMF's agent-registration surface: each fabric
// Agent registers as an AggregationSource whose resources are aggregated
// into the single Redfish tree.
type AggregationService struct {
	odata.Resource
	ServiceEnabled     bool         `json:"ServiceEnabled"`
	Status             odata.Status `json:"Status"`
	AggregationSources *odata.Ref   `json:"AggregationSources,omitempty"`
}

// AggregationSource records one registered Agent.
type AggregationSource struct {
	odata.Resource
	HostName string         `json:"HostName"` // agent callback URL
	UserName string         `json:"UserName,omitempty"`
	SNMP     map[string]any `json:"SNMP,omitempty"`
	Status   odata.Status   `json:"Status"`
	Links    AggSourceLinks `json:"Links"`
	Oem      AggSourceOem   `json:"Oem,omitempty"`
}

// AggSourceLinks lists resources owned by this source.
type AggSourceLinks struct {
	ConnectionMethod  *odata.Ref  `json:"ConnectionMethod,omitempty"`
	ResourcesAccessed []odata.Ref `json:"ResourcesAccessed,omitempty"`
}

// AggSourceOem carries the OFMF-specific agent descriptor.
type AggSourceOem struct {
	OFMF *AgentDescriptor `json:"OFMF,omitempty"`
}

// AgentDescriptor describes an Agent's technology and heartbeat state.
type AgentDescriptor struct {
	Technology    string `json:"Technology"` // CXL, NVMeOverFabrics, InfiniBand, GPU
	Version       string `json:"Version,omitempty"`
	LastHeartbeat string `json:"LastHeartbeat,omitempty"`
}

// Timestamp formats t in the RFC3339 form Redfish uses.
func Timestamp(t time.Time) string { return t.UTC().Format(time.RFC3339) }
